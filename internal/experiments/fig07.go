package experiments

import (
	"context"
	"fmt"

	"elasticore/internal/petrinet"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// fig07.go reproduces Figure 7: the PrT state transitions fired while the
// mechanism supports Q6, with the CPU usage and the allocated core count
// at every control period.

// Fig7Point is one control-period evaluation.
type Fig7Point struct {
	AtSeconds float64
	Label     string
	CPULoad   int
	Cores     int
}

// Fig7Result is the typed view of the fig7 Result: the transition timeline
// decoded from its "transitions" table plus the summary metrics.
type Fig7Result struct {
	*Result
	Points []Fig7Point
	// PeakCores and FinalCores summarize the ramp-up/release behaviour.
	PeakCores, FinalCores int
	// Allocations and Releases count fired actions.
	Allocations, Releases int
}

// runFig7 drives a burst of concurrent Q6 clients under the adaptive
// mechanism and records the fired transitions.
func runFig7(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	tl := res.AddTable("transitions",
		colF("t(s)", 3), colS("transition"), colI("cpu%"), colI("cores"))
	var peak, final, allocations, releases int
	err := phase(ctx, obs, fmt.Sprintf("q6 burst clients=%d", c.Clients), func() error {
		r, err := newRig(c, workload.ModeAdaptive, nil)
		if err != nil {
			return err
		}
		pr := r.EnableProbe(0)
		d := &workload.Driver{Rig: r, QueriesPerClient: 2}
		d.RunSameQuery(c.Clients, tpch.BuildQ6)
		// Let the system idle so the release transitions fire too.
		r.Advance(50)

		topo := r.Machine.Topology()
		events := r.Mech.Events()
		for _, e := range events {
			tl.AddRow(topo.CyclesToSeconds(e.Now), e.Label, e.U, e.NAlloc)
			if e.NAlloc > peak {
				peak = e.NAlloc
			}
			switch e.Action {
			case petrinet.DecisionAllocate:
				allocations++
			case petrinet.DecisionRelease:
				releases++
			}
		}
		if n := len(events); n > 0 {
			final = events[n-1].NAlloc
		}
		addTimelineTable(res, topo, pr.Samples())
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.AddMetric("peak_cores", float64(peak), "cores")
	res.AddMetric("final_cores", float64(final), "cores")
	res.AddMetric("allocations", float64(allocations), "")
	res.AddMetric("releases", float64(releases), "")
	obs.Progress(1, 1)
	return res, nil
}

// fig7ResultFrom decodes the generic Result into the typed view.
func fig7ResultFrom(res *Result) (*Fig7Result, error) {
	tl := res.Table("transitions")
	if tl == nil {
		return nil, fmt.Errorf("experiments: fig7 result missing transitions table")
	}
	out := &Fig7Result{Result: res}
	for i := range tl.Rows {
		at, _ := tl.Float(i, 0)
		label, _ := tl.Str(i, 1)
		load, _ := tl.Int(i, 2)
		cores, _ := tl.Int(i, 3)
		out.Points = append(out.Points, Fig7Point{
			AtSeconds: at, Label: label, CPULoad: int(load), Cores: int(cores),
		})
	}
	peak, _ := res.Metric("peak_cores")
	final, _ := res.Metric("final_cores")
	allocs, _ := res.Metric("allocations")
	rels, _ := res.Metric("releases")
	out.PeakCores, out.FinalCores = int(peak), int(final)
	out.Allocations, out.Releases = int(allocs), int(rels)
	return out, nil
}

// RunFig7 executes the burst through the registry and returns the typed
// view.
func RunFig7(c Config) (*Fig7Result, error) {
	res, err := run("fig7", c)
	if err != nil {
		return nil, err
	}
	return fig7ResultFrom(res)
}
