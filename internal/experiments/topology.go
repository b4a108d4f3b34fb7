package experiments

import (
	"context"
	"fmt"
	"strings"

	"elasticore/internal/db"
	"elasticore/internal/elastic"
	"elasticore/internal/numa"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// topology.go implements the topology-sweep experiment: the fig4-style
// Q6 concurrency workload executed on every machine shape in the
// topology zoo under every topology-aware placement policy. The paper
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

// TopologySweepRow is one (topology, placement) measurement.
type TopologySweepRow struct {
	Topology  string
	Placement string
	Nodes     int
	Cores     int
	// Throughput is Q6 completions per virtual second at Config.Clients
	// concurrent users.
	Throughput float64
	// HTMB and IMCMB are interconnect and memory-controller megabytes
	// moved over the phase.
	HTMB, IMCMB float64
	// HTIMC is the NUMA-friendliness ratio (Section V-B), smaller is
	// friendlier.
	HTIMC float64
	// AllocCores is the mechanism's allocation when the phase ended.
	AllocCores int
}

// runTopologySweep executes the sweep: one rig per topology x placement,
// each driving Config.Clients concurrent users through one TPC-H Q6.
func runTopologySweep(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	sweep := res.AddTable("sweep",
		colS("topology"), colS("placement"), colI("nodes"), colI("cores"),
		colF("q/s", 3), colF("HT MB", 2), colF("IMC MB", 2), colF("ht/imc", 3), colI("alloc"))

	var friendliest strings.Builder
	for ti, zt := range sweepZoo {
		base := zt.build()
		err := phase(ctx, obs, zt.name, func() error {
			bestName, bestRatio := "", 0.0
			for _, p := range elastic.Placements() {
				row, err := runTopologyPoint(c, zt.name, base, p)
				if err != nil {
					return err
				}
				sweep.AddRow(row.Topology, row.Placement, row.Nodes, row.Cores,
					row.Throughput, row.HTMB, row.IMCMB, row.HTIMC, row.AllocCores)
				if bestName == "" || row.HTIMC < bestRatio {
					bestName, bestRatio = row.Placement, row.HTIMC
				}
			}
			fmt.Fprintf(&friendliest, "%-8s  %s (ht/imc %.3f)\n", zt.name, bestName, bestRatio)
			return nil
		})
		if err != nil {
			return nil, err
		}
		obs.Progress(ti+1, len(sweepZoo))
	}
	res.AddMetric("topologies", float64(len(sweepZoo)), "")
	res.AddMetric("placements", float64(len(elastic.Placements())), "")
	res.AddArtifact("numa-friendliest placement per topology", friendliest.String())
	return res, nil
}

// runTopologyPoint builds one rig on the SF-scaled shape and drives the
// fig4-style phase: Clients concurrent users, each one Q6 with the
// canonical parameters.
func runTopologyPoint(c Config, name string, base *numa.Topology, p elastic.Placement) (TopologySweepRow, error) {
	rig, err := workload.NewRig(workload.Options{
		SF:            c.SF,
		Seed:          c.Seed,
		Placement:     c.Placement,
		CorePlacement: p,
		Topology:      workload.ScaleTopology(base, c.SF),
	})
	if err != nil {
		return TopologySweepRow{}, fmt.Errorf("topology %s, placement %s: %w", name, p.Name(), err)
	}
	d := &workload.Driver{Rig: rig, QueriesPerClient: 1}
	params := q6Fixed()
	ph := d.Run(c.Clients, func(cl, k int) *db.Plan { return tpch.BuildQ6With(params) })
	topo := rig.Machine.Topology()
	return TopologySweepRow{
		Topology:   name,
		Placement:  p.Name(),
		Nodes:      topo.NodeCount,
		Cores:      topo.TotalCores(),
		Throughput: ph.Throughput,
		HTMB:       mb(ph.Window.TotalHTBytes()),
		IMCMB:      mb(ph.Window.TotalIMCBytes()),
		HTIMC:      ph.Window.HTIMCRatio(),
		AllocCores: rig.AllocatedCores(),
	}, nil
}

// TopologySweepResult is the typed view of the topology-sweep Result.
type TopologySweepResult struct {
	*Result
	Rows []TopologySweepRow
}

// Row returns the measurement for a topology and placement, or nil.
func (r *TopologySweepResult) Row(topology, placement string) *TopologySweepRow {
	for i := range r.Rows {
		if r.Rows[i].Topology == topology && r.Rows[i].Placement == placement {
			return &r.Rows[i]
		}
	}
	return nil
}

// topologySweepResultFrom decodes the generic Result into the typed
// view.
func topologySweepResultFrom(res *Result) (*TopologySweepResult, error) {
	sweep := res.Table("sweep")
	if sweep == nil {
		return nil, fmt.Errorf("experiments: topology-sweep result missing sweep table")
	}
	out := &TopologySweepResult{Result: res}
	for i := range sweep.Rows {
		topology, _ := sweep.Str(i, 0)
		placement, _ := sweep.Str(i, 1)
		nodes, _ := sweep.Int(i, 2)
		cores, _ := sweep.Int(i, 3)
		tput, _ := sweep.Float(i, 4)
		ht, _ := sweep.Float(i, 5)
		imc, _ := sweep.Float(i, 6)
		ratio, _ := sweep.Float(i, 7)
		alloc, _ := sweep.Int(i, 8)
		out.Rows = append(out.Rows, TopologySweepRow{
			Topology: topology, Placement: placement,
			Nodes: int(nodes), Cores: int(cores),
			Throughput: tput, HTMB: ht, IMCMB: imc, HTIMC: ratio,
			AllocCores: int(alloc),
		})
	}
	return out, nil
}

// RunTopologySweep executes the sweep through the registry and returns
// the typed view.
func RunTopologySweep(c Config) (*TopologySweepResult, error) {
	res, err := run("topology-sweep", c)
	if err != nil {
		return nil, err
	}
	return topologySweepResultFrom(res)
}
