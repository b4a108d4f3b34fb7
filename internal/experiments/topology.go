package experiments

import (
	"context"
	"fmt"
	"strings"

	"elasticore/internal/db"
	"elasticore/internal/numa"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// topology.go implements the topology-sweep experiment: the fig4-style
// Q6 concurrency workload executed on every machine shape in the
// topology zoo under every topology-aware placement mode. The paper
// evaluated its mechanism on exactly one machine — the four-socket
// Opteron square — but its central claim (counter-driven elastic
// allocation keeps the system NUMA-friendly) is about NUMA machines in
// general. This sweep makes the machine shape an experimental axis and
// reports, per topology x placement, the throughput, interconnect (HT)
// and memory-controller (IMC) traffic, and the Section V-B
// NUMA-friendliness ratio HT/IMC (smaller = friendlier).

// sweepTopology is one zoo entry of the sweep, in fixed presentation
// order (map iteration would break golden determinism).
type sweepTopology struct {
	name  string
	build func() *numa.Topology
}

// sweepZoo lists the swept shapes: the paper's testbed plus the four
// zoo machines. Order is the golden-file order.
var sweepZoo = []sweepTopology{
	{"opteron", numa.Opteron8387},
	{"2socket", numa.TwoSocket},
	{"4ring", numa.FourSocketRing},
	{"8twisted", numa.EightSocketTwisted},
	{"epyc", numa.EPYCLike},
}

// sweepModes lists the swept placement modes, in golden-file order.
var sweepModes = []workload.Mode{workload.ModeNodeFill, workload.ModeHopMin, workload.ModeScatter}

// runTopologySweep executes the sweep: one rig per topology x placement,
// each driving Config.Clients concurrent users through one TPC-H Q6.
func runTopologySweep(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	tbl := res.AddTable("sweep",
		colS("topology"), colS("placement"), colI("nodes"), colI("cores"),
		colF("q/s", 3), colF("HT MB", 2), colF("IMC MB", 2), colF("ht/imc", 3), colI("alloc"))

	var friendliest strings.Builder
	zooPhase := func(zt sweepTopology) string { return zt.name }
	err := sweep(ctx, obs, sweepZoo, zooPhase, func(_ int, zt sweepTopology) error {
		base := zt.build()
		bestName, bestRatio := "", 0.0
		for _, mode := range sweepModes {
			ratio, err := runTopologyPoint(c, tbl, zt.name, base, mode)
			if err != nil {
				return err
			}
			if bestName == "" || ratio < bestRatio {
				bestName, bestRatio = mode.String(), ratio
			}
		}
		fmt.Fprintf(&friendliest, "%-8s  %s (ht/imc %.3f)\n", zt.name, bestName, bestRatio)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.AddMetric("topologies", float64(len(sweepZoo)), "")
	res.AddMetric("placements", float64(len(sweepModes)), "")
	res.AddArtifact("numa-friendliest placement per topology", friendliest.String())
	return res, nil
}

// runTopologyPoint builds one rig on the SF-scaled shape, drives the
// fig4-style phase — Clients concurrent users, each one Q6 with the
// canonical parameters — appends its sweep row and returns its HT/IMC
// NUMA-friendliness ratio (Section V-B, smaller is friendlier).
func runTopologyPoint(c Config, tbl *Table, name string, base *numa.Topology, mode workload.Mode) (float64, error) {
	rig, err := workload.NewRig(workload.Options{
		SF:        c.SF,
		Seed:      c.Seed,
		Mode:      mode,
		Placement: c.Placement,
		Topology:  workload.ScaleTopology(base, c.SF),
	})
	if err != nil {
		return 0, fmt.Errorf("topology %s, placement %s: %w", name, mode, err)
	}
	d := &workload.Driver{Rig: rig, QueriesPerClient: 1}
	params := q6Fixed()
	ph := d.Run(c.Clients, func(cl, k int) *db.Plan { return tpch.BuildQ6With(params) })
	topo := rig.Machine.Topology()
	ratio := ph.Window.HTIMCRatio()
	tbl.AddRow(name, mode.String(), topo.NodeCount, topo.TotalCores(), ph.Throughput,
		mb(ph.Window.TotalHTBytes()), mb(ph.Window.TotalIMCBytes()), ratio, rig.AllocatedCores())
	return ratio, nil
}
