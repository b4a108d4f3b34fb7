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

// runFig7 drives a burst of concurrent Q6 clients under the adaptive
// mechanism and records the fired transitions.
func runFig7(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	tl := res.AddTable("transitions",
		colF("t(s)", 3), colS("transition"), colI("cpu%"), colI("cores"))
	var peak, final, allocations, releases int
	burst := fmt.Sprintf("q6 burst clients=%d", c.Clients)
	err := sweep(ctx, obs, []string{burst}, nil, func(int, string) error {
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
	return res, nil
}
