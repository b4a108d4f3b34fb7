package experiments

import (
	"strings"
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/workload"
)

// Tiny config keeps each experiment fast in unit tests; the benches run
// larger ones.
func tiny() Config {
	return Config{SF: 0.005, Clients: 16, Users: []int{1, 8}, Seed: 1}
}

func TestFig4ShapeTargets(t *testing.T) {
	res, err := RunFig4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Every configuration measured at every user count.
	for _, cfg := range []string{"OS/MonetDB", "OS/C", "Dense/C", "Sparse/C"} {
		for _, u := range []int{1, 8} {
			if res.Row(cfg, u) == nil {
				t.Fatalf("missing row %s/%d", cfg, u)
			}
		}
	}
	// Shape: the Volcano engine's thread storm moves more interconnect
	// data than the fused C kernel at every concurrency, with the gap
	// narrowing as users grow (the paper's 100x at 1 user vs 8x at 256).
	for _, u := range []int{1, 8} {
		if res.Row("OS/MonetDB", u).HTMBPerS <= res.Row("OS/C", u).HTMBPerS {
			t.Errorf("OS/MonetDB HT (%g MB/s) should exceed OS/C (%g MB/s) at %d users",
				res.Row("OS/MonetDB", u).HTMBPerS, res.Row("OS/C", u).HTMBPerS, u)
		}
	}
	gap1 := res.Row("OS/MonetDB", 1).HTMBPerS / res.Row("OS/C", 1).HTMBPerS
	gap8 := res.Row("OS/MonetDB", 8).HTMBPerS / res.Row("OS/C", 8).HTMBPerS
	if gap8 >= gap1 {
		t.Errorf("MonetDB/C HT gap should narrow with users: %gx -> %gx", gap1, gap8)
	}
	// Shape: dense-pinned C threads produce the least interconnect use.
	if res.Row("Dense/C", 8).HTMBPerS > res.Row("Sparse/C", 8).HTMBPerS {
		t.Errorf("Dense/C HT (%g) should not exceed Sparse/C (%g)",
			res.Row("Dense/C", 8).HTMBPerS, res.Row("Sparse/C", 8).HTMBPerS)
	}
	if !strings.Contains(res.String(), "Figure 4") {
		t.Error("rendering broken")
	}
}

func TestFig5ShapeTargets(t *testing.T) {
	res, err := RunFig5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.ThreadsObserved == 0 {
		t.Fatal("no worker threads observed")
	}
	if res.ParallelTheta < 2 {
		t.Errorf("thetasubselect fan-out = %d, want parallel execution", res.ParallelTheta)
	}
	if !strings.Contains(res.Tomograph, "algebra.thetasubselect") {
		t.Error("tomograph missing the scan operator")
	}
}

func TestFig7ShapeTargets(t *testing.T) {
	res, err := RunFig7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no transitions recorded")
	}
	// Shape: the mechanism must ramp up under load and release after it.
	if res.PeakCores < 2 {
		t.Errorf("peak cores = %d, want ramp-up under 16 concurrent clients", res.PeakCores)
	}
	if res.Allocations == 0 {
		t.Error("no t1-Overload-t5 allocations fired")
	}
	if res.Releases == 0 {
		t.Error("no t0-Idle-t4 releases fired after the load ended")
	}
	for _, p := range res.Points {
		switch p.Label {
		case "t0-Idle-t4", "t0-Idle-t7", "t1-Overload-t5", "t1-Overload-t6", "t2-Stable-t3":
		default:
			t.Errorf("unexpected label %q", p.Label)
		}
	}
}

func TestFig13ShapeTargets(t *testing.T) {
	res, err := RunFig13(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range workload.AllModes {
		for _, u := range []int{1, 8} {
			if res.Row(mode, u) == nil {
				t.Fatalf("missing row %v/%d", mode, u)
			}
		}
	}
	// Shape: stolen tasks stay comparable, with the adaptive mode not
	// stealing substantially more than the OS (the paper's OS stole 46%
	// more; at our scale the two are near parity — see EXPERIMENTS.md).
	osRow, adRow := res.Row(workload.ModeOS, 8), res.Row(workload.ModeAdaptive, 8)
	if float64(adRow.StolenTasks) > 1.25*float64(osRow.StolenTasks) {
		t.Errorf("adaptive stolen tasks (%d) far exceed OS (%d)", adRow.StolenTasks, osRow.StolenTasks)
	}
	if osRow.Tasks == 0 || adRow.Tasks == 0 {
		t.Error("task counts missing")
	}
}

func TestFig14ShapeTargets(t *testing.T) {
	res, err := RunFig14(tiny())
	if err != nil {
		t.Fatal(err)
	}
	osRow, adRow := res.Row(workload.ModeOS), res.Row(workload.ModeAdaptive)
	if osRow == nil || adRow == nil {
		t.Fatal("missing rows")
	}
	// Shape: the adaptive mode does not miss substantially more than the
	// OS baseline (the paper's -43% does not fully reproduce at scaled
	// cache geometry; see EXPERIMENTS.md).
	if float64(adRow.TotalL3Misses) > 1.15*float64(osRow.TotalL3Misses) {
		t.Errorf("adaptive L3 misses (%d) far exceed OS (%d)", adRow.TotalL3Misses, osRow.TotalL3Misses)
	}
	// Shape: the OS baseline has the highest HT traffic rate.
	for _, mode := range []workload.Mode{workload.ModeDense, workload.ModeAdaptive} {
		if row := res.Row(mode); row.HTGBPerS > osRow.HTGBPerS {
			t.Errorf("%v HT rate (%g) exceeds OS (%g)", mode, row.HTGBPerS, osRow.HTGBPerS)
		}
	}
}

func TestFig15ShapeTargets(t *testing.T) {
	c := tiny()
	res, err := RunFig15(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(Fig15Selectivities)*len(workload.AllModes) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Shape: misses grow with selectivity for the OS (more data
	// materialized).
	if res.Row(workload.ModeOS, 1.0).L3Misses <= res.Row(workload.ModeOS, 0.02).L3Misses {
		t.Error("OS misses did not grow with selectivity")
	}
}

func TestFig16ShapeTargets(t *testing.T) {
	res, err := RunFig16(tiny())
	if err != nil {
		t.Fatal(err)
	}
	osRow := res.Row(workload.ModeOS)
	adRow := res.Row(workload.ModeAdaptive)
	denseRow := res.Row(workload.ModeDense)
	if osRow == nil || adRow == nil || denseRow == nil {
		t.Fatal("missing rows")
	}
	// Shape: dense and adaptive keep execution on fewer nodes than the
	// OS's all-node spread (paper Fig 16 b/d vs a).
	if denseRow.NodesTouched > osRow.NodesTouched {
		t.Errorf("dense touched %d nodes, OS %d", denseRow.NodesTouched, osRow.NodesTouched)
	}
	if adRow.NodesTouched > osRow.NodesTouched {
		t.Errorf("adaptive touched %d nodes, OS %d", adRow.NodesTouched, osRow.NodesTouched)
	}
}

func TestFig17ShapeTargets(t *testing.T) {
	res, err := RunFig17(tiny())
	if err != nil {
		t.Fatal(err)
	}
	os := res.Row(workload.ModeOS, "-")
	if os == nil {
		t.Fatal("missing OS row")
	}
	for _, strat := range []string{"cpu-load", "ht-imc"} {
		if res.Row(workload.ModeAdaptive, strat) == nil {
			t.Fatalf("missing adaptive/%s row", strat)
		}
	}
	// Shape (paper Fig 17 b): the OS moves far more interconnect data
	// than the adaptive mode with the CPU-load strategy (paper: ~9x).
	ad := res.Row(workload.ModeAdaptive, "cpu-load")
	if ad.HTMBPerS >= os.HTMBPerS {
		t.Errorf("adaptive HT rate %.2f not below OS %.2f", ad.HTMBPerS, os.HTMBPerS)
	}
	// Shape (paper Fig 17 a/c): the HT/IMC strategy reacts more slowly
	// than CPU load, costing response time.
	if res.Row(workload.ModeAdaptive, "ht-imc").ResponseSecs < ad.ResponseSecs {
		t.Error("ht-imc strategy faster than cpu-load, contradicting the paper's Fig 17")
	}
	// L3 misses: near parity at scaled cache geometry (the paper's 2x
	// improvement does not fully reproduce; see EXPERIMENTS.md).
	for _, strat := range []string{"cpu-load", "ht-imc"} {
		if row := res.Row(workload.ModeAdaptive, strat); float64(row.L3Misses) > 1.15*float64(os.L3Misses) {
			t.Errorf("adaptive/%s misses %d far exceed OS %d", strat, row.L3Misses, os.L3Misses)
		}
	}
}

func TestFig18ShapeTargets(t *testing.T) {
	c := tiny()
	c.Clients = 8
	res, err := RunFig18(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"OS/MonetDB", "Adaptive/MonetDB", "OS/SQLServer", "Adaptive/SQLServer"} {
		run := res.Run(label)
		if run == nil {
			t.Fatalf("missing run %s", label)
		}
		if run.TotalSeconds <= 0 {
			t.Errorf("%s total time %g", label, run.TotalSeconds)
		}
	}
	// Shape: the adaptive mechanism does not slow MonetDB down.
	osRun, adRun := res.Run("OS/MonetDB"), res.Run("Adaptive/MonetDB")
	if adRun.TotalSeconds > osRun.TotalSeconds*1.3 {
		t.Errorf("Adaptive/MonetDB %.3fs much slower than OS %.3fs", adRun.TotalSeconds, osRun.TotalSeconds)
	}
}

func TestFig19ShapeTargets(t *testing.T) {
	c := tiny()
	c.Clients = 8
	res, err := RunFig19(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 22 {
		t.Fatalf("queries = %d, want 22", len(res.Queries))
	}
	if res.MaxSpeedup <= 0 {
		t.Error("no speedup computed")
	}
	// SQL Server flavour runs too.
	c.Placement = db.PlacementNUMAAware
	res2, err := RunFig19(c)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Engine != "SQLServer" {
		t.Errorf("engine label %q", res2.Engine)
	}
}

func TestFig20ShapeTargets(t *testing.T) {
	c := tiny()
	c.Clients = 8
	res, err := RunFig20(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 22 {
		t.Fatalf("queries = %d, want 22", len(res.Queries))
	}
	// Shape: the adaptive mode is at worst energy-neutral at this tiny
	// scale (the paper's 26% saving emerges with scale; the bench config
	// reports the measured value — see EXPERIMENTS.md).
	if res.TotalSavingsPct < -5 {
		t.Errorf("total savings %.2f%%, want >= -5%%", res.TotalSavingsPct)
	}
	if res.GeoHTSavingsPct <= 0 {
		t.Error("no HT energy savings at all")
	}
}

func TestOverheadOrdering(t *testing.T) {
	res, err := MeasureOverhead(tiny(), 200)
	if err != nil {
		t.Fatal(err)
	}
	// Shape: the adaptive mode's control step costs at least as much as
	// dense (it maintains the residency priority queue).
	if res.PerStep[workload.ModeAdaptive] < res.PerStep[workload.ModeDense]/2 {
		t.Errorf("adaptive step (%v) implausibly cheaper than dense (%v)",
			res.PerStep[workload.ModeAdaptive], res.PerStep[workload.ModeDense])
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
