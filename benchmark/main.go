// Command benchmark is the repository's one benchmark for the whole
// stack: five named workloads, host and simulated end-to-end metrics,
// per-layer kernels, counts and shares, and a traced run. See README.md.
//
// Usage (through benchmark/run.sh, which builds it first):
//
//	run.sh                                  all workloads, untraced then traced, one child process each
//	run.sh --workload W --seed N --seconds S --trace 0|1
//	                                        one run in this process; last line is the result as JSON
//	run.sh compare A.json B.json            judge report B against report A
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	// Profiling is off except around the traced repetitions.
	runtime.MemProfileRate = 0

	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "run this one workload in this process (default: all, one child process each)")
	seed := flag.Uint64("seed", 1, "workload seed: datasets, arrival processes, key streams and mixers derive from it")
	seconds := flag.Float64("seconds", 10, "seconds of simulate time the timed repetitions of an untraced run add up to, at least")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny operating point (the package test's)")
	outDir := flag.String("out", "benchmark/out", "directory for reports, traces and profiles")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *smoke, *outDir))
	}
	def, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var rep *runReport
	if *trace == 1 {
		rep = runPerLayer(def, *seed, *smoke, *outDir)
	} else {
		rep = runEndToEnd(def, *seed, *seconds, *smoke)
	}
	if err := writeJSON(reportPath(*outDir, def.name, *seed, *trace), rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printRun(rep)
	if err := printResultLine(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

func reportPath(outDir, workload string, seed uint64, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, trace))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// declared returns the metrics a run of this kind must report.
func declared(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printRun prints every metric of one run by name with its unit.
func printRun(rep *runReport) {
	kind := "untraced"
	if rep.Trace {
		kind = "traced"
	}
	fmt.Printf("== %s  seed %d  %s  go %s  nproc %d  GOMAXPROCS %d  GOGC %d\n", rep.Workload, rep.Seed, kind,
		rep.Env.GoVersion, rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.GOGC)
	for _, d := range declared(rep.Trace) {
		s, ok := rep.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("%-36s %16.6g %-10s", d.Name, s.Value, s.Unit)
		if s.N > 0 && s.Q3 != 0 {
			fmt.Printf("  q1 %.6g  q3 %.6g  n %d", s.Q1, s.Q3, s.N)
		}
		if s.Raw != 0 {
			fmt.Printf("  raw %.6g", s.Raw)
		}
		fmt.Println()
	}
	if rep.ProbeReps != nil {
		fmt.Printf("host probe: %.4g ns per load between repetitions, %.4g between set-ups; host times are at %.4g\n",
			rep.ProbeReps.Value, rep.ProbeSetups.Value, probeRefNS)
	}
	names := make([]string, 0, len(rep.Spans))
	for name := range rep.Spans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := rep.Spans[name]
		fmt.Printf("span %-31s %8d x  total %10.3f ms  self %10.3f ms\n", name, s.Count, s.TotalMS, s.SelfMS)
	}
	if rep.TraceFile != "" {
		fmt.Printf("trace file %s, bus events %v\n", rep.TraceFile, rep.BusEvents)
	}
	fmt.Printf("sim_digest %s  operations attempted %d  failed %d\n", rep.Digest, rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Println("FAILED", f)
	}
}

// printResultLine prints the run's result as the one JSON object the
// driver reads from the last line of standard output.
func printResultLine(rep *runReport) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range declared(rep.Trace) {
		if s, ok := rep.Metrics[d.Name]; ok && !math.IsNaN(s.Value) && !math.IsInf(s.Value, 0) {
			metrics[d.Name] = value{s.Value, s.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// fullReport is what the run of all workloads writes and compare reads.
type fullReport struct {
	Schema int          `json:"schema"`
	Seed   uint64       `json:"seed"`
	Runs   []*runReport `json:"runs"`
	// Separation is the workload-separation self-check over the traced runs.
	Separation []sepCheck `json:"separation"`
}

// runAll runs every workload in its own child process — a cold dataset
// cache, a clean heap, and a crash in one workload contained — first
// untraced, then traced, and writes the combined report.
func runAll(seed uint64, seconds float64, smoke bool, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	full := fullReport{Schema: 1, Seed: seed}
	failed := 0
	for _, def := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{"--workload", def.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "-out", outDir}
			if smoke {
				args = append(args, "-smoke")
			}
			path := reportPath(outDir, def.name, seed, trace)
			os.Remove(path)
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			rep := &runReport{}
			data, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(data, rep)
			}
			if err != nil {
				// The child died before it could report: one failed operation.
				rep = &runReport{Workload: def.name, Seed: seed, Trace: trace == 1, Attempted: 1, Failed: 1,
					Failures: []string{fmt.Sprintf("child process: %v", runErr)}}
				fmt.Printf("FAILED %s: child process: %v\n", def.name, runErr)
			}
			failed += rep.Failed
			full.Runs = append(full.Runs, rep)
		}
	}
	full.Separation = separation(&full)
	fmt.Println("== workload separation")
	for _, c := range full.Separation {
		fmt.Printf("%-4s %s (%s)\n", okWord(c.OK), c.Name, c.Detail)
	}
	path := filepath.Join(outDir, fmt.Sprintf("report-seed%d.json", seed))
	if err := writeJSON(path, &full); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("report %s, failed operations %d\n", path, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

func okWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}
