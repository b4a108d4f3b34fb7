// Package experiments is the repository's experiment platform: a
// catalogue of named, tagged, runnable scenarios.
//
// Every evaluation artifact of the paper (Sections II and V: figures 4-20,
// the mechanism-overhead measurement, the multi-tenant consolidation) is
// an Experiment — a Name, Title, Summary and Tags and a Body, run by
// Run(ctx, Config, Observer) — and one row of the catalogue table in
// register.go. A body reports its work through one helper, sweep: each
// point of a sweep is one phase, followed by its progress. A run produces
// a structured Result: named tables of typed columns, scalar metrics,
// free-form text artifacts and run metadata, rendering uniformly to text,
// JSON and CSV. The Runner executes a batch of experiments concurrently
// with a worker pool, honoring context cancellation and collecting
// per-experiment errors. cmd/elasticbench (list/run) and the root
// benchmarks both sit on this surface, and read a Result by table and
// column name (Table.Col); a new scenario is one body function plus one
// catalogue row, not a new bespoke API.
//
// Scaling note: the paper ran a 1 GB database (SF 1) with 256 clients and
// a 50 ms-class control loop on real hardware. The simulation defaults to
// SF 0.005-0.02 with proportionally shorter quanta and control periods so
// a full figure regenerates in seconds; Config lets callers raise SF and
// client counts toward the paper's operating point.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"elasticore/internal/db"
	"elasticore/internal/elastic"
	"elasticore/internal/faults"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// Config scales an experiment.
type Config struct {
	// SF is the TPC-H scale factor (default 0.005; negative or non-finite
	// rejected).
	SF float64
	// Clients is the concurrency for single-point experiments
	// (default 64; the paper uses 256; negative rejected).
	Clients int
	// Users is the concurrency sweep for Fig 4/13 (default 1,4,16,64;
	// every entry must be >= 1).
	Users []int
	// Seed varies data and parameters (default 1).
	Seed uint64
	// Placement selects the engine flavour (MonetDB-like by default).
	Placement db.Placement
	// Tenants is the tenant count of the consolidation experiment
	// (2..4; zero defaults to 3; anything else is rejected).
	Tenants int
	// Loads is the offered-load sweep of the latency-load experiment, as
	// fractions of the measured closed-loop saturation throughput
	// (default 0.25, 0.5, 0.75, 1, 1.5, 2; every entry must be finite and
	// > 0).
	Loads []float64
	// OpenArrivals bounds the arrivals offered per open-loop sweep point
	// (default 120; negative rejected).
	OpenArrivals int
	// Arrival selects the latency-load arrival-process family: "poisson"
	// (default), "mmpp" or "diurnal".
	Arrival string
	// Machines is the fleet size for the cluster experiments (default 4;
	// must be >= 1; scale-out sweeps 1..Machines in powers of two).
	Machines int
	// Shards is the fleet's partition count (default 2x Machines; must
	// be >= Machines so every machine owns data).
	Shards int
	// Topology selects the machine shape for rig-backed experiments: a
	// zoo name (numa.ZooNames: opteron, 2socket, 4ring, 8twisted, epyc)
	// or a "nodes x cores [@ hops...]" spec (numa.ParseTopology). Empty
	// selects the SF-scaled Opteron testbed. The topology-sweep
	// experiment ignores it — it sweeps the whole zoo.
	Topology string
	// Replicas keeps R copies of every shard in the fleets the cluster
	// experiments build (0 picks each experiment's own default; must fit
	// the fleet: Replicas <= Machines). The fault-tolerance experiment
	// uses it for its replicated variant and defaults that variant to 2.
	Replicas int
	// Faults is a deterministic failure-plan spec (internal/faults
	// grammar, e.g. "crash m1 @0.02s for 0.06s") injected into
	// every fleet the cluster experiments build. Empty disables
	// injection and leaves every experiment byte-identical to a build
	// without the fault subsystem; the fault-tolerance experiment
	// synthesizes its own crash window when this is empty.
	Faults string
	// Workers bounds how many goroutines tick the busy machines of each
	// fleet the cluster experiments build at once, the caller included
	// (0 selects GOMAXPROCS, 1 the caller alone; negative rejected;
	// construction ignores it). Results are bit-identical at every value
	// — the engine synchronizes at control-period epoch barriers and
	// replays staged telemetry in sequential order.
	Workers int
	// LookupRatios is the point-lookup fraction sweep of the htap-mix
	// experiment (default 0, 0.25, 0.5, 0.75, 1; every entry must lie in
	// [0, 1]).
	LookupRatios []float64
	// Bus, when set, is attached to every rig the experiment builds, so
	// one telemetry stream spans the run (`elasticbench run -trace`).
	// Pure observation: results are bit-identical with or without it,
	// and it takes no part in config validation or metadata.
	Bus *obs.Bus
}

// withDefaults validates the config and fills zero values. All validation
// is central here — experiment bodies receive a config that is already
// known good.
func (c Config) withDefaults() (Config, error) {
	if !(c.SF >= 0) || math.IsInf(c.SF, 1) { // also rejects NaN
		return c, fmt.Errorf("experiments: scale factor %g not a finite non-negative number", c.SF)
	}
	if c.SF == 0 {
		c.SF = 0.005
	}
	if c.Clients < 0 {
		return c, fmt.Errorf("experiments: client count %d below 1", c.Clients)
	}
	if c.Clients == 0 {
		c.Clients = 64
	}
	if len(c.Users) == 0 {
		c.Users = []int{1, 4, 16, 64}
	}
	for _, u := range c.Users {
		if u < 1 {
			return c, fmt.Errorf("experiments: user count %d below 1", u)
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tenants == 0 {
		c.Tenants = 3
	}
	if c.Tenants < 2 || c.Tenants > 4 {
		return c, fmt.Errorf("experiments: tenant count %d outside 2..4", c.Tenants)
	}
	if len(c.Loads) == 0 {
		c.Loads = []float64{0.25, 0.5, 0.75, 1, 1.5, 2}
	}
	for _, l := range c.Loads {
		if !(l > 0) || math.IsInf(l, 1) { // also rejects NaN
			return c, fmt.Errorf("experiments: offered load %g not positive and finite", l)
		}
	}
	if c.OpenArrivals < 0 {
		return c, fmt.Errorf("experiments: negative open-loop arrival count %d", c.OpenArrivals)
	}
	if c.Machines < 0 {
		return c, fmt.Errorf("experiments: machine count %d below 1", c.Machines)
	}
	if c.Machines == 0 {
		c.Machines = 4
	}
	if c.Shards == 0 {
		c.Shards = 2 * c.Machines
	}
	if c.Shards < c.Machines {
		return c, fmt.Errorf("experiments: %d shards below %d machines (every machine must own data)", c.Shards, c.Machines)
	}
	if c.OpenArrivals == 0 {
		c.OpenArrivals = 120
	}
	if c.Replicas < 0 {
		return c, fmt.Errorf("experiments: negative replica count %d", c.Replicas)
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("experiments: negative worker count %d", c.Workers)
	}
	if c.Replicas > c.Machines {
		return c, fmt.Errorf("experiments: %d replicas exceed %d machines", c.Replicas, c.Machines)
	}
	if len(c.LookupRatios) == 0 {
		c.LookupRatios = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	for _, r := range c.LookupRatios {
		if !(r >= 0 && r <= 1) { // also rejects NaN
			return c, fmt.Errorf("experiments: lookup ratio %g outside [0, 1]", r)
		}
	}
	if c.Faults != "" {
		if _, err := faults.Parse(c.Faults); err != nil {
			return c, err
		}
	}
	switch c.Arrival {
	case "":
		c.Arrival = "poisson"
	case "poisson", "mmpp", "diurnal":
	default:
		return c, fmt.Errorf("experiments: unknown arrival process %q (want poisson, mmpp or diurnal)", c.Arrival)
	}
	if c.Topology != "" {
		if _, err := numa.ParseTopology(c.Topology); err != nil {
			return c, err
		}
	}
	return c, nil
}

// machineTopology resolves Config.Topology into a machine shape scaled
// to the given total scale factor, or nil when the config keeps the
// default testbed. Validation already ran in withDefaults, so a parse
// failure here is impossible for configs that came through Run.
func (c Config) machineTopology(sf float64) (*numa.Topology, error) {
	if c.Topology == "" {
		return nil, nil
	}
	t, err := numa.ParseTopology(c.Topology)
	if err != nil {
		return nil, err
	}
	return workload.ScaleTopology(t, sf), nil
}

// engineName labels the engine flavour for metadata and listings.
func (c Config) engineName() string {
	if c.Placement == db.PlacementNUMAAware {
		return "sqlserver"
	}
	return "monetdb"
}

// newRig builds a workload rig with simulation timing and machine
// geometry scaled to the dataset (workload.ScaledTopology): 50 us
// quantum, 0.25 ms control period, SF-proportional caches and
// bandwidths. Config.Topology, when set, swaps the machine shape.
func newRig(c Config, mode workload.Mode, strategy elastic.Strategy) (*workload.Rig, error) {
	topo, err := c.machineTopology(c.SF)
	if err != nil {
		return nil, err
	}
	return workload.NewRig(workload.Options{
		SF:        c.SF,
		Seed:      c.Seed,
		Mode:      mode,
		Placement: c.Placement,
		Strategy:  strategy,
		Topology:  topo,
		Bus:       c.Bus,
	})
}

// q6Fixed returns the canonical Q6 parameters used by the
// microbenchmarks: year 1997, discount 0.07, quantity 24 (Figure 3).
func q6Fixed() tpch.Q6Params {
	return tpch.Q6Params{Year: 1997, Discount: 0.07, Quantity: 24}
}

// thetaSpec is the isolated thetasubselect workload of Figures 13-15: a
// partitioned scan of l_quantity at the given selectivity (0..1) whose
// candidate list is materialized and counted.
func thetaSpec(selectivity float64) db.PlanSpec {
	cut := 1 + selectivity*50
	return db.PlanSpec{Name: "thetasubselect", Ops: []db.OpSpec{
		db.Scan("lineitem", "l_quantity", "c1", db.PredFLess(cut)),
		db.Count("c1", "result"),
	}}
}

// thetaPlan lowers thetaSpec unchecked (TestThetaSpecCompiles checks it).
func thetaPlan(selectivity float64) *db.Plan { return thetaSpec(selectivity).Lower() }

// table renders aligned rows: header plus formatted cells. It is the text
// renderer behind Result.WriteText.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			// Cells beyond the header are printed unpadded instead of
			// indexing widths out of range.
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// mb converts bytes to megabytes.
func mb(bytes uint64) float64 { return float64(bytes) / 1e6 }

// addTimelineTable renders probe samples as a Result table: one row per
// control-period snapshot with the allocation, load reading, backlog,
// window traffic and energy, and (when a latency source was attached)
// the cumulative latency quantiles.
func addTimelineTable(res *Result, topo *numa.Topology, samples []obs.Snapshot) {
	tl := res.AddTable("timeline",
		colF("t(s)", 4), colI("cores"), colI("load"), colI("backlog"),
		colF("ht(MB)", 2), colF("imc(MB)", 2), colF("energy(J)", 3),
		colF("p50(ms)", 3), colF("p99(ms)", 3))
	for _, s := range samples {
		tl.AddRow(topo.CyclesToSeconds(s.Now), s.Allocated, s.Load, s.Backlog,
			mb(s.HTBytes), mb(s.IMCBytes), s.EnergyJoules,
			topo.CyclesToSeconds(s.P50)*1e3, topo.CyclesToSeconds(s.P99)*1e3)
	}
}

// perNodeIMCThroughput returns GB/s served by each node's memory
// controller over a window.
func perNodeIMCThroughput(topo *numa.Topology, w numa.Counters) []float64 {
	secs := topo.CyclesToSeconds(w.Now)
	out := make([]float64, len(w.Nodes))
	if secs == 0 {
		return out
	}
	for i, n := range w.Nodes {
		out[i] = float64(n.IMCBytes) / secs / 1e9
	}
	return out
}

// usersPhase and modePhase name the phases of a user-count sweep and of a
// mode sweep.
func usersPhase(users int) string      { return fmt.Sprintf("users=%d", users) }
func modePhase(m workload.Mode) string { return "mode=" + m.String() }
