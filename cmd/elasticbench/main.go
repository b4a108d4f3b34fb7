// Command elasticbench runs catalogued experiments: every table and figure
// of the paper's evaluation plus the consolidation scenario, through the
// experiments platform (catalogue, structured results, parallel runner).
//
// Usage:
//
//	elasticbench list
//	elasticbench run fig4 fig19 consolidation -format json -out results/ -parallel 4
//	elasticbench run all -sf 0.01 -clients 128
//	elasticbench run fig19 -engine sqlserver -v
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"elasticore/internal/db"
	"elasticore/internal/experiments"
	"elasticore/internal/obs"
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "elasticbench: %v\n", err)
		os.Exit(1)
	}
}

// dispatch runs the command the first argument names; a missing or
// unknown one prints the usage and is an error.
func dispatch(args []string) error {
	if len(args) == 0 {
		usage(os.Stderr)
		return fmt.Errorf("no command given")
	}
	switch args[0] {
	case "list":
		return cmdList(args[1:])
	case "run":
		return cmdRun(args[1:])
	case "help", "-h", "--help":
		usage(os.Stdout)
		return nil
	default:
		usage(os.Stderr)
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `elasticbench runs catalogued experiments.

Commands:
  list [-tag S]            list experiments with descriptions and tags
  run <name>... [flags]    run experiments ("all" expands the catalogue)

Tags group experiments for selection (list -tag S, experiments.WithTag):
  microbench   single-query / single-operator measurements (figs 4-5, 13-16)
  elastic      the mechanism is in the loop (most figures, consolidation)
  scheduling   OS scheduler behaviour under concurrency
  trace        lifespan / migration / tomograph artifacts
  strategy     CPU-load vs HT/IMC state-transition strategies
  memory       per-socket cache and memory-controller metrics
  workload     full 22-query stable / mixed phase protocols
  energy       the paper's CPU + interconnect energy model
  tenancy      multi-tenant consolidation under the core arbiter
  openloop     open-loop arrival-driven traffic (latency-load, burst-response)
  traffic      arrival processes and admission queues
  topology     machine-shape sweeps over the topology zoo
  numa         NUMA-friendliness and hop-distance placement
  petrinet     the PrT net itself (state transitions)
  cluster      sharded fleets behind the scatter/route coordinator
  faults       failure injection: crashes, slow cores, lossy links

Run flags:
  -sf F        TPC-H scale factor (default 0.005; paper: 1.0)
  -clients N   concurrent clients / open-loop server sessions (default 64)
  -seed N      data and parameter seed (default 1)
  -engine S    engine flavour: monetdb | sqlserver
  -tenants N   tenant count for consolidation (2..4, default 3)
  -loads S     comma-separated offered-load sweep for latency-load, as
               fractions of saturation (default 0.25,0.5,0.75,1,1.5,2)
  -arrival S   latency-load arrival process: poisson | mmpp | diurnal
  -open-arrivals N  arrivals offered per open-loop point (default 120)
  -machines N  fleet size for the cluster experiments (default 4;
               scale-out sweeps 1..N in powers of two)
  -shards N    fleet partition count (default 2x machines; must be
               >= machines so every machine owns data)
  -topology S  machine shape for rig experiments: a zoo name (opteron,
               2socket, 4ring, 8twisted, epyc) or a spec like "2x8" or
               "4x4 @ 1 2 1 1 2 1" (nodes x cores @ upper-triangle hop
               counts); default: the SF-scaled Opteron testbed
  -replicas N  shard copies kept by the cluster experiments (0 picks
               each experiment's default; must be <= machines)
  -workers N   most goroutines ticking a fleet's busy machines at once
               (default GOMAXPROCS; 1: the caller alone; construction
               ignores it; results are bit-identical at every value)
  -faults S    deterministic failure plan injected into the cluster
               experiments, e.g. "crash m1 @0.02s for 0.06s; slow m0
               c* x4 @0s; link m2 +0.5ms drop 0.3 @1s for 2s"; empty
               disables fault injection
  -trace FILE  record the run's telemetry bus and write it as Chrome/
               Perfetto trace-event JSON (open at ui.perfetto.dev); the
               batch must name exactly one experiment
  -format S    output format: text | json | csv (default text)
  -out DIR     write one <name>.<format> file per experiment into DIR
  -parallel N  worker pool size (default 1)
  -v           stream phase/progress events to stderr

Exit status: non-zero when any experiment in the batch fails (or a
flag, name or output error occurs); 0 only when every experiment ran
and rendered successfully.
`)
}

// cmdList prints the catalogue: name, tags, title, summary.
func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	tag := fs.String("tag", "", "only experiments carrying this tag")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exps := experiments.All()
	if *tag != "" {
		exps = experiments.WithTag(*tag)
	}
	for _, e := range exps {
		fmt.Printf("%-14s [%s]\n    %s\n    %s\n",
			e.Name, strings.Join(e.Tags, ", "), e.Title, e.Summary)
	}
	if len(exps) == 0 && *tag != "" {
		return fmt.Errorf("no experiments tagged %q (tags: %s)",
			*tag, strings.Join(experiments.Tags(), ", "))
	}
	return nil
}

// runFlags are the options of `run`.
type runFlags struct {
	cfg      experiments.Config
	format   string
	out      string
	parallel int
	verbose  bool
	loads    string
	ratios   string
	trace    string
}

func bindRunFlags(fs *flag.FlagSet) (*runFlags, *string) {
	rf := &runFlags{}
	fs.Float64Var(&rf.cfg.SF, "sf", 0.005, "TPC-H scale factor (paper: 1.0)")
	fs.IntVar(&rf.cfg.Clients, "clients", 64, "concurrent clients / open-loop server sessions (paper: 256)")
	fs.Uint64Var(&rf.cfg.Seed, "seed", 1, "data and parameter seed")
	fs.IntVar(&rf.cfg.Tenants, "tenants", 3, "tenant count for the consolidation experiment (2..4)")
	fs.StringVar(&rf.loads, "loads", "", "comma-separated offered-load fractions for latency-load (default 0.25,0.5,0.75,1,1.5,2)")
	fs.StringVar(&rf.ratios, "lookup-ratios", "", "comma-separated point-lookup fractions for htap-mix (default 0,0.25,0.5,0.75,1)")
	fs.StringVar(&rf.cfg.Arrival, "arrival", "", "latency-load arrival process: poisson | mmpp | diurnal")
	fs.IntVar(&rf.cfg.OpenArrivals, "open-arrivals", 0, "arrivals offered per open-loop point (default 120)")
	fs.IntVar(&rf.cfg.Machines, "machines", 0, "fleet size for the cluster experiments (default 4)")
	fs.IntVar(&rf.cfg.Shards, "shards", 0, "fleet partition count (default 2x machines; must be >= machines)")
	fs.StringVar(&rf.cfg.Topology, "topology", "", "machine shape: zoo name or \"nodes x cores [@ hops...]\" spec")
	fs.IntVar(&rf.cfg.Replicas, "replicas", 0, "shard copies kept by the cluster experiments (0: experiment default; must be <= machines)")
	fs.IntVar(&rf.cfg.Workers, "workers", 0, "most goroutines ticking a fleet's busy machines at once, the caller included (0: GOMAXPROCS, 1: the caller alone; construction ignores it; results bit-identical)")
	fs.StringVar(&rf.cfg.Faults, "faults", "", "deterministic failure plan injected into cluster experiments (internal/faults grammar)")
	engine := fs.String("engine", "monetdb", "engine flavour: monetdb | sqlserver")
	fs.StringVar(&rf.trace, "trace", "", "write a Chrome/Perfetto trace-event JSON file (single experiment only)")
	fs.StringVar(&rf.format, "format", "text", "output format: text | json | csv")
	fs.StringVar(&rf.out, "out", "", "directory for one <name>.<format> file per experiment")
	fs.IntVar(&rf.parallel, "parallel", 1, "worker pool size")
	fs.BoolVar(&rf.verbose, "v", false, "stream phase/progress events to stderr")
	return rf, engine
}

func (rf *runFlags) applyEngine(engine string) error {
	switch engine {
	case "monetdb":
	case "sqlserver":
		rf.cfg.Placement = db.PlacementNUMAAware
	default:
		return fmt.Errorf("unknown engine %q (want monetdb or sqlserver)", engine)
	}
	if rf.loads != "" {
		for _, field := range strings.Split(rf.loads, ",") {
			l, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return fmt.Errorf("bad -loads entry %q: %v", field, err)
			}
			rf.cfg.Loads = append(rf.cfg.Loads, l)
		}
	}
	if rf.ratios != "" {
		for _, field := range strings.Split(rf.ratios, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return fmt.Errorf("bad -lookup-ratios entry %q: %v", field, err)
			}
			rf.cfg.LookupRatios = append(rf.cfg.LookupRatios, r)
		}
	}
	return nil
}

// cmdRun parses `run <name>... [flags]` and executes the batch. Names and
// flags may interleave (`run fig4 -sf 0.01 fig19 -format json`).
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	rf, engine := bindRunFlags(fs)
	var names []string
	for len(args) > 0 {
		if args[0] == "--" {
			// Explicit terminator: everything after is a name.
			names = append(names, args[1:]...)
			break
		}
		// A bare "-" is a non-flag to flag.Parse too; consuming it here
		// keeps the loop advancing.
		if args[0] == "-" || !strings.HasPrefix(args[0], "-") {
			names = append(names, args[0])
			args = args[1:]
			continue
		}
		// flag.Parse consumes flags up to the next non-flag token; keep
		// alternating so no trailing name is silently dropped.
		if err := fs.Parse(args); err != nil {
			return err
		}
		rest := fs.Args()
		if len(rest) == len(args) {
			// Defensive: no progress means the token parses as neither
			// flag nor name — treat it as a name so Resolve reports it.
			names = append(names, rest[0])
			rest = rest[1:]
		}
		args = rest
	}
	if err := rf.applyEngine(*engine); err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("run needs experiment names (try `elasticbench list` or `run all`)")
	}
	// Resolve every name before anything runs, so a typo fails fast.
	exps, err := experiments.Resolve(names...)
	if err != nil {
		return err
	}
	return execute(exps, rf)
}

// execute runs the batch and renders every result.
func execute(exps []experiments.Experiment, rf *runFlags) error {
	if rf.format != "text" && rf.format != "json" && rf.format != "csv" {
		return fmt.Errorf("unknown format %q (want text, json or csv)", rf.format)
	}
	var bus *obs.Bus
	if rf.trace != "" {
		if len(exps) != 1 {
			return fmt.Errorf("-trace records one experiment's telemetry, got %d (run them separately)", len(exps))
		}
		bus = obs.NewBus(0)
		rf.cfg.Bus = bus
	}
	if rf.out != "" {
		if err := os.MkdirAll(rf.out, 0o755); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runner := &experiments.Runner{Parallel: rf.parallel, Config: rf.cfg}
	if rf.verbose {
		runner.Observe = func(name string) experiments.Observer {
			return &experiments.WriterObserver{W: os.Stderr, Prefix: name}
		}
	}
	reports := runner.Run(ctx, exps...)

	failed := 0
	for _, rep := range reports {
		if rep.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "elasticbench: %s: %v\n", rep.Name, rep.Err)
			continue
		}
		if err := emit(rep, rf); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "elasticbench: %s done in %s\n", rep.Name, rep.Elapsed.Round(1e6))
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d experiments failed", failed, len(reports))
	}
	if bus != nil {
		if err := obs.WriteTraceFile(rf.trace, bus.Events()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "elasticbench: wrote %d trace events to %s (%d published, %d beyond the ring)\n",
			bus.Len(), rf.trace, bus.Total(), bus.Dropped())
	}
	return nil
}

// emit renders one report to stdout or into the -out directory.
func emit(rep experiments.Report, rf *runFlags) error {
	if rf.out == "" {
		return rep.Result.Render(os.Stdout, rf.format)
	}
	ext := rf.format
	if ext == "text" {
		ext = "txt"
	}
	path := filepath.Join(rf.out, rep.Name+"."+ext)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.Result.Render(f, rf.format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
