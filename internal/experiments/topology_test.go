package experiments

import "testing"

// topology_test.go covers the topology-sweep experiment: golden
// renderings across machine shapes (2socket, 4ring, 8twisted, opteron
// and epyc in one run), structural completeness and the Config.Topology
// plumbing that lets any rig experiment swap shapes.

// TestGoldenTopologySweep pins the sweep's text, JSON and CSV renderings.
func TestGoldenTopologySweep(t *testing.T) {
	res := goldenRun(t, "topology-sweep")
	for _, format := range []string{"text", "json", "csv"} {
		checkGolden(t, res, format)
	}
}

// TestTopologySweepCoversZooTimesPlacements: one row per (topology,
// placement), positive throughput and memory traffic everywhere.
func TestTopologySweepCoversZooTimesPlacements(t *testing.T) {
	res, err := runExp(t, "topology-sweep", goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(sweepZoo) * len(sweepModes)
	if n := len(res.Table("sweep").Rows); n != wantRows {
		t.Fatalf("%d rows, want %d (topologies x placements)", n, wantRows)
	}
	for _, zt := range sweepZoo {
		for _, mode := range sweepModes {
			key := []any{zt.name, mode.String()}
			tput, imc := cell(t, res, "sweep", "q/s", key...), cell(t, res, "sweep", "IMC MB", key...)
			if tput <= 0 || imc <= 0 {
				t.Errorf("%s x %s: throughput %.3f, IMC %.2f MB; want positive", zt.name, mode, tput, imc)
			}
			if alloc, cores := cell(t, res, "sweep", "alloc", key...), cell(t, res, "sweep", "cores", key...); alloc < 1 || alloc > cores {
				t.Errorf("%s x %s: allocation %g outside 1..%g", zt.name, mode, alloc, cores)
			}
		}
	}
}

// TestTopologySweepHopAwareBeatsScatter pins the sweep's reason to
// exist: on every machine shape, hop-aware placement must be at least
// as NUMA-friendly (HT/IMC, smaller is better) as the topology-blind
// scatter baseline.
func TestTopologySweepHopAwareBeatsScatter(t *testing.T) {
	res, err := runExp(t, "topology-sweep", goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, zt := range sweepZoo {
		scatter := cell(t, res, "sweep", "ht/imc", zt.name, "scatter")
		for _, name := range []string{"node-fill", "hop-min"} {
			if aware := cell(t, res, "sweep", "ht/imc", zt.name, name); aware > scatter {
				t.Errorf("%s: %s ht/imc %.3f worse than scatter %.3f", zt.name, name, aware, scatter)
			}
		}
	}
}

// TestConfigTopologySwapsShape: Config.Topology must put any rig
// experiment on the named machine; fig4 on the two-socket machine must
// report a run (and the meta echoes the config unchanged).
func TestConfigTopologySwapsShape(t *testing.T) {
	cfg := goldenConfig()
	cfg.Users = []int{2}
	cfg.Topology = "2socket"
	res, err := runExp(t, "fig4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sweep := res.Table("sweep")
	if len(sweep.Rows) == 0 {
		t.Fatal("fig4 on 2socket produced no rows")
	}
	for i, row := range sweep.Rows {
		if tput, ok := sweep.Float(i, sweep.Col("q/s")); !ok || tput <= 0 {
			t.Errorf("row %v: throughput %.3f", row, tput)
		}
	}
}

// TestConfigRejectsBadTopology: validation is central, so a bad shape
// fails before any rig is built.
func TestConfigRejectsBadTopology(t *testing.T) {
	cfg := goldenConfig()
	cfg.Topology = "9x9"
	if _, err := runExp(t, "fig4", cfg); err == nil {
		t.Error("9x9 (81 cores) accepted")
	}
	cfg.Topology = "not-a-shape"
	if _, err := runExp(t, "fig4", cfg); err == nil {
		t.Error("malformed topology accepted")
	}
}
