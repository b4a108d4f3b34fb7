package experiments

import (
	"testing"

	"elasticore/internal/elastic"
)

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
	res, err := RunTopologySweep(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(sweepZoo) * len(elastic.Placements())
	if len(res.Rows) != wantRows {
		t.Fatalf("%d rows, want %d (topologies x placements)", len(res.Rows), wantRows)
	}
	for _, zt := range sweepZoo {
		for _, p := range elastic.Placements() {
			row := res.Row(zt.name, p.Name())
			if row == nil {
				t.Errorf("no row for %s x %s", zt.name, p.Name())
				continue
			}
			if row.Throughput <= 0 || row.IMCMB <= 0 {
				t.Errorf("%s x %s: throughput %.3f, IMC %.2f MB; want positive",
					zt.name, p.Name(), row.Throughput, row.IMCMB)
			}
			if row.AllocCores < 1 || row.AllocCores > row.Cores {
				t.Errorf("%s x %s: allocation %d outside 1..%d",
					zt.name, p.Name(), row.AllocCores, row.Cores)
			}
		}
	}
}

// TestTopologySweepHopAwareBeatsScatter pins the sweep's reason to
// exist: on every machine shape, hop-aware placement must be at least
// as NUMA-friendly (HT/IMC, smaller is better) as the topology-blind
// scatter baseline.
func TestTopologySweepHopAwareBeatsScatter(t *testing.T) {
	res, err := RunTopologySweep(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, zt := range sweepZoo {
		scatter := res.Row(zt.name, "scatter")
		for _, name := range []string{"node-fill", "hop-min"} {
			aware := res.Row(zt.name, name)
			if aware == nil || scatter == nil {
				t.Fatalf("%s: missing rows", zt.name)
			}
			if aware.HTIMC > scatter.HTIMC {
				t.Errorf("%s: %s ht/imc %.3f worse than scatter %.3f",
					zt.name, name, aware.HTIMC, scatter.HTIMC)
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
	res, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("fig4 on 2socket produced no rows")
	}
	for _, row := range res.Rows {
		if row.Throughput <= 0 {
			t.Errorf("%s users=%d: throughput %.3f", row.Config, row.Users, row.Throughput)
		}
	}
}

// TestConfigRejectsBadTopology: validation is central, so a bad shape
// fails before any rig is built.
func TestConfigRejectsBadTopology(t *testing.T) {
	cfg := goldenConfig()
	cfg.Topology = "9x9"
	if _, err := RunFig4(cfg); err == nil {
		t.Error("9x9 (81 cores) accepted")
	}
	cfg.Topology = "not-a-shape"
	if _, err := RunFig4(cfg); err == nil {
		t.Error("malformed topology accepted")
	}
}
