package experiments

import (
	"context"
	"fmt"

	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// fig05.go reproduces Figures 5 and 6: the lifespan/core-migration map of
// the threads spawned for a single-client Q6 under the plain OS scheduler,
// and the tomograph of its worker-thread operator calls.

// runFig5 executes a single-client Q6 on the OS-scheduled engine and
// collects the traces.
func runFig5(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	err := sweep(ctx, obs, []string{"q6 single client"}, nil, func(int, string) error {
		r, err := newRig(c, workload.ModeOS, nil)
		if err != nil {
			return err
		}
		// Both traces ride the rig's shared telemetry bus — with
		// Config.Bus set they coexist with the exporter on one stream.
		b := r.EnsureBus()
		mt := newLifespan(b, r.Machine.Topology())
		tg := newTomograph(b, r.Machine.Topology())

		q := r.Engine.Submit(tpch.BuildQ6With(q6Fixed()))
		if !r.Sched.RunUntil(q.Done, r.Machine.Timebase().Deadline) {
			return fmt.Errorf("experiments: fig5 query timed out")
		}

		migrations, crossNode := mt.MigrationCount()
		nodes := mt.NodesUsed()
		multiNode := 0
		for _, n := range nodes {
			if n > 1 {
				multiNode++
			}
		}
		parallelTheta := 0
		for _, s := range tg.Stats() {
			if s.Op == "algebra.thetasubselect" {
				parallelTheta = s.Calls
			}
		}
		res.AddMetric("migrations", float64(migrations), "")
		res.AddMetric("cross_node", float64(crossNode), "")
		res.AddMetric("threads_observed", float64(len(nodes)), "")
		res.AddMetric("multi_node_threads", float64(multiNode), "")
		res.AddMetric("parallel_theta", float64(parallelTheta), "tasks")
		res.AddArtifact("lifespan_map", mt.Render(24, 16))
		res.AddArtifact("tomograph", tg.Render())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
