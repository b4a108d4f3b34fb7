package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/metrics"
	"elasticore/internal/workload"
)

// Tiny config keeps each experiment fast in unit tests; the benches run
// larger ones.
func tiny() Config {
	return Config{SF: 0.005, Clients: 16, Users: []int{1, 8}, Seed: 1}
}

// runExp runs a catalogued experiment with a background context and no
// observer.
func runExp(t testing.TB, name string, cfg Config) (*Result, error) {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	return e.Run(context.Background(), cfg, nil)
}

// cell reads column col of the first row of res's table whose leading
// cells equal keys after normalizeCell; a missing table, row or column
// fails the test.
func cell(t testing.TB, res *Result, table, col string, keys ...any) float64 {
	t.Helper()
	tb := res.Table(table)
	for i := 0; tb != nil && i < len(tb.Rows); i++ {
		r := tb.Rows[i]
		if len(r) >= len(keys) && slices.EqualFunc(r[:len(keys)], keys, func(c, k any) bool { return c == normalizeCell(k) }) {
			if v, ok := tb.Float(i, tb.Col(col)); ok {
				return v
			}
			t.Fatalf("%s: table %q has no numeric column %q", res.Name, table, col)
		}
	}
	t.Fatalf("%s: no table %q, or no row %v in it", res.Name, table, keys)
	return 0
}

// metric reads a named Result metric; a missing one fails the test.
func metric(t testing.TB, res *Result, name string) float64 {
	t.Helper()
	v, ok := res.Metric(name)
	if !ok {
		t.Fatalf("%s: no metric %q", res.Name, name)
	}
	return v
}

func TestFig4ShapeTargets(t *testing.T) {
	res, err := runExp(t, "fig4", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Every configuration measured at every user count.
	for _, cfg := range []string{"OS/MonetDB", "OS/C", "Dense/C", "Sparse/C"} {
		for _, u := range []int{1, 8} {
			cell(t, res, "sweep", "q/s", cfg, u)
		}
	}
	// Shape: the Volcano engine's thread storm moves more interconnect
	// data than the fused C kernel at every concurrency, with the gap
	// narrowing as users grow (the paper's 100x at 1 user vs 8x at 256).
	for _, u := range []int{1, 8} {
		mdb, c := cell(t, res, "sweep", "HT MB/s", "OS/MonetDB", u), cell(t, res, "sweep", "HT MB/s", "OS/C", u)
		if mdb <= c {
			t.Errorf("OS/MonetDB HT (%g MB/s) should exceed OS/C (%g MB/s) at %d users", mdb, c, u)
		}
	}
	gap1 := cell(t, res, "sweep", "HT MB/s", "OS/MonetDB", 1) / cell(t, res, "sweep", "HT MB/s", "OS/C", 1)
	gap8 := cell(t, res, "sweep", "HT MB/s", "OS/MonetDB", 8) / cell(t, res, "sweep", "HT MB/s", "OS/C", 8)
	if gap8 >= gap1 {
		t.Errorf("MonetDB/C HT gap should narrow with users: %gx -> %gx", gap1, gap8)
	}
	// Shape: dense-pinned C threads produce the least interconnect use.
	if dense, sparse := cell(t, res, "sweep", "HT MB/s", "Dense/C", 8), cell(t, res, "sweep", "HT MB/s", "Sparse/C", 8); dense > sparse {
		t.Errorf("Dense/C HT (%g) should not exceed Sparse/C (%g)", dense, sparse)
	}
	if !strings.Contains(res.String(), "Figure 4") {
		t.Error("rendering broken")
	}
}

func TestFig5ShapeTargets(t *testing.T) {
	res, err := runExp(t, "fig5", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, res, "threads_observed") == 0 {
		t.Fatal("no worker threads observed")
	}
	if theta := metric(t, res, "parallel_theta"); theta < 2 {
		t.Errorf("thetasubselect fan-out = %g, want parallel execution", theta)
	}
	if !strings.Contains(res.Artifact("tomograph"), "algebra.thetasubselect") {
		t.Error("tomograph missing the scan operator")
	}
}

func TestFig7ShapeTargets(t *testing.T) {
	res, err := runExp(t, "fig7", tiny())
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Table("transitions")
	if tl == nil || len(tl.Rows) == 0 {
		t.Fatal("no transitions recorded")
	}
	// Shape: the mechanism must ramp up under load and release after it.
	if peak := metric(t, res, "peak_cores"); peak < 2 {
		t.Errorf("peak cores = %g, want ramp-up under 16 concurrent clients", peak)
	}
	if metric(t, res, "allocations") == 0 {
		t.Error("no t1-Overload-t5 allocations fired")
	}
	if metric(t, res, "releases") == 0 {
		t.Error("no t0-Idle-t4 releases fired after the load ended")
	}
	// Every evaluation ends on one of the five complete paths, and cores
	// move only on the two action paths, by exactly one core: t4 releases
	// and t5 allocates. The rig starts on one core.
	cores := int64(1)
	for i := range tl.Rows {
		label, _ := tl.Str(i, tl.Col("transition"))
		n, _ := tl.Int(i, tl.Col("cores"))
		var want int64
		switch label {
		case "t0-Idle-t4":
			want = -1
		case "t1-Overload-t5":
			want = 1
		case "t0-Idle-t7", "t1-Overload-t6", "t2-Stable-t3":
		default:
			t.Errorf("row %d: unexpected label %q", i, label)
		}
		if n-cores != want {
			t.Errorf("row %d: %s moved %d → %d cores, want a move of %d", i, label, cores, n, want)
		}
		cores = n
	}
}

func TestFig13ShapeTargets(t *testing.T) {
	res, err := runExp(t, "fig13", tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range workload.AllModes {
		for _, u := range []int{1, 8} {
			cell(t, res, "sweep", "q/s", mode, u)
		}
	}
	// Shape: stolen tasks stay comparable, with the adaptive mode not
	// stealing substantially more than the OS (the paper's OS stole 46%
	// more; at our scale the two are near parity — see ROADMAP item 7).
	osStolen, adStolen := cell(t, res, "sweep", "stolen", workload.ModeOS, 8), cell(t, res, "sweep", "stolen", workload.ModeAdaptive, 8)
	if adStolen > 1.25*osStolen {
		t.Errorf("adaptive stolen tasks (%g) far exceed OS (%g)", adStolen, osStolen)
	}
	if cell(t, res, "sweep", "tasks", workload.ModeOS, 8) == 0 || cell(t, res, "sweep", "tasks", workload.ModeAdaptive, 8) == 0 {
		t.Error("task counts missing")
	}
}

func TestFig14ShapeTargets(t *testing.T) {
	res, err := runExp(t, "fig14", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Shape: the adaptive mode does not miss substantially more than the
	// OS baseline (the paper's -43% does not fully reproduce at scaled
	// cache geometry; see ROADMAP item 7).
	osMiss, adMiss := cell(t, res, "sockets", "L3 total", workload.ModeOS), cell(t, res, "sockets", "L3 total", workload.ModeAdaptive)
	if adMiss > 1.15*osMiss {
		t.Errorf("adaptive L3 misses (%g) far exceed OS (%g)", adMiss, osMiss)
	}
	// Shape: the OS baseline has the highest HT traffic rate.
	osHT := cell(t, res, "sockets", "HT GB/s", workload.ModeOS)
	for _, mode := range []workload.Mode{workload.ModeDense, workload.ModeAdaptive} {
		if ht := cell(t, res, "sockets", "HT GB/s", mode); ht > osHT {
			t.Errorf("%v HT rate (%g) exceeds OS (%g)", mode, ht, osHT)
		}
	}
}

func TestFig15ShapeTargets(t *testing.T) {
	res, err := runExp(t, "fig15", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Table("sweep").Rows); n != len(fig15Selectivities)*len(workload.AllModes) {
		t.Fatalf("rows = %d", n)
	}
	// Shape: misses grow with selectivity for the OS (more data
	// materialized).
	if cell(t, res, "sweep", "L3 misses", workload.ModeOS, 1.0) <= cell(t, res, "sweep", "L3 misses", workload.ModeOS, 0.02) {
		t.Error("OS misses did not grow with selectivity")
	}
}

func TestFig16ShapeTargets(t *testing.T) {
	res, err := runExp(t, "fig16", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Shape: dense and adaptive keep execution on fewer nodes than the
	// OS's all-node spread (paper Fig 16 b/d vs a).
	osNodes := cell(t, res, "modes", "nodes touched", workload.ModeOS)
	for _, mode := range []workload.Mode{workload.ModeDense, workload.ModeAdaptive} {
		if n := cell(t, res, "modes", "nodes touched", mode); n > osNodes {
			t.Errorf("%v touched %g nodes, OS %g", mode, n, osNodes)
		}
	}
}

func TestFig17ShapeTargets(t *testing.T) {
	res, err := runExp(t, "fig17", tiny())
	if err != nil {
		t.Fatal(err)
	}
	const tb = "strategies"
	// Shape (paper Fig 17 b): the OS moves far more interconnect data
	// than the adaptive mode with the CPU-load strategy (paper: ~9x).
	adHT, osHT := cell(t, res, tb, "HT MB/s", workload.ModeAdaptive, "cpu-load"), cell(t, res, tb, "HT MB/s", workload.ModeOS, "-")
	if adHT >= osHT {
		t.Errorf("adaptive HT rate %.2f not below OS %.2f", adHT, osHT)
	}
	// Shape (paper Fig 17 a/c): the HT/IMC strategy reacts more slowly
	// than CPU load, costing response time.
	if cell(t, res, tb, "resp (s)", workload.ModeAdaptive, "ht-imc") < cell(t, res, tb, "resp (s)", workload.ModeAdaptive, "cpu-load") {
		t.Error("ht-imc strategy faster than cpu-load, contradicting the paper's Fig 17")
	}
	// L3 misses: near parity at scaled cache geometry (the paper's 2x
	// improvement does not fully reproduce; see ROADMAP item 7).
	osMiss := cell(t, res, tb, "L3 misses", workload.ModeOS, "-")
	for _, strat := range []string{"cpu-load", "ht-imc"} {
		if miss := cell(t, res, tb, "L3 misses", workload.ModeAdaptive, strat); miss > 1.15*osMiss {
			t.Errorf("adaptive/%s misses %g far exceed OS %g", strat, miss, osMiss)
		}
	}
}

func TestFig18ShapeTargets(t *testing.T) {
	c := tiny()
	c.Clients = 8
	res, err := runExp(t, "fig18", c)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"OS/MonetDB", "Adaptive/MonetDB", "OS/SQLServer", "Adaptive/SQLServer"} {
		if total := cell(t, res, "runs", "total (s)", label); total <= 0 {
			t.Errorf("%s total time %g", label, total)
		}
	}
	// Shape: the adaptive mechanism does not slow MonetDB down.
	osT, adT := cell(t, res, "runs", "total (s)", "OS/MonetDB"), cell(t, res, "runs", "total (s)", "Adaptive/MonetDB")
	if adT > osT*1.3 {
		t.Errorf("Adaptive/MonetDB %.3fs much slower than OS %.3fs", adT, osT)
	}
}

func TestFig19ShapeTargets(t *testing.T) {
	c := tiny()
	c.Clients = 8
	res, err := runExp(t, "fig19", c)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Table("queries").Rows); n != 22 {
		t.Fatalf("queries = %d, want 22", n)
	}
	if metric(t, res, "max_speedup") <= 0 {
		t.Error("no speedup computed")
	}
	// SQL Server flavour runs too.
	c.Placement = db.PlacementNUMAAware
	res2, err := runExp(t, "fig19", c)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Meta.Engine != "sqlserver" {
		t.Errorf("engine label %q", res2.Meta.Engine)
	}
}

func TestFig20ShapeTargets(t *testing.T) {
	c := tiny()
	c.Clients = 8
	res, err := runExp(t, "fig20", c)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Table("queries").Rows); n != 22 {
		t.Fatalf("queries = %d, want 22", n)
	}
	// The >= -5% bound is a regression guard at this test's operating
	// point (SF 0.005, 8 clients, seed 1, where the total reads -0.88%),
	// not the paper's 26% saving, and no larger scale reaches that
	// saving: with 32 clients the total is -45.05% at SF 0.005, driven by
	// Q14, Q19 and Q13, and within 1.3% of zero from SF 0.02 up to SF 0.2.
	// See ROADMAP item 7.
	if total := metric(t, res, "total_savings_pct"); total < -5 {
		t.Errorf("total savings %.2f%%, want >= -5%%", total)
	}
	if metric(t, res, "geo_ht_savings_pct") <= 0 {
		t.Error("no HT energy savings at all")
	}
}

// TestFig20PricesTheRigItRan: fig20 charges each query's counter window
// at the power of the machine that ran it. On the two-socket zoo machine a
// core is an eighth of a socket's power, not the testbed's quarter.
func TestFig20PricesTheRigItRan(t *testing.T) {
	c, err := (Config{SF: 0.002, Clients: 4, Topology: "2socket"}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runExp(t, "fig20", c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRig(c, workload.ModeOS, nil)
	if err != nil {
		t.Fatal(err)
	}
	const qn = 6
	phase := workload.MixedPhases(r, c.Clients)[qn-1]
	want := metrics.DefaultEnergyModel().Estimate(r.Machine.Topology(), phase.Window)
	if got := cell(t, res, "queries", "OS cpu(J)", qn); got != want.CPUJoules {
		t.Errorf("Q%d OS cpu = %g J, want %g J on the rig's own topology", qn, got, want.CPUJoules)
	}
	if got := cell(t, res, "queries", "OS ht(J)", qn); got != want.HTJoules {
		t.Errorf("Q%d OS ht = %g J, want %g J", qn, got, want.HTJoules)
	}
}

func TestOverheadOrdering(t *testing.T) {
	c, err := tiny().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOverhead(context.Background(), c, NopObserver{}, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Shape: the adaptive mode's control step does more work than dense's
	// (it reads the residency vector behind its priority queue). The host
	// nanoseconds per step are output only: under a parallel test run they
	// order the modes by noise.
	reads := func(m workload.Mode) float64 { return cell(t, res, "steps", "residency reads", m) }
	if reads(workload.ModeAdaptive) == 0 || reads(workload.ModeDense) != 0 || reads(workload.ModeSparse) != 0 {
		t.Errorf("residency reads over 200 steps: adaptive %g, dense %g, sparse %g; want some, none, none",
			reads(workload.ModeAdaptive), reads(workload.ModeDense), reads(workload.ModeSparse))
	}
	if !strings.Contains(res.String(), "adaptive") {
		t.Error("rendering broken")
	}
}

// TestThetaSpecCompiles is the catalog check thetaPlan skips: the
// thetasubselect workload compiles against a loaded store at the
// selectivities the figures sweep.
func TestThetaSpecCompiles(t *testing.T) {
	r, err := workload.NewRig(workload.Options{SF: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []float64{0, 0.02, 0.45, 1} {
		if _, err := thetaSpec(sel).Compile(r.Store); err != nil {
			t.Fatalf("selectivity %g: %v", sel, err)
		}
	}
}
