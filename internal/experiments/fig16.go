package experiments

import (
	"context"
	"fmt"

	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// fig16.go reproduces Figure 16: the lifespan/migration maps of a
// single-client Q6 under all four configurations, showing that dense and
// adaptive keep threads on one node while the OS scatters them.

// runFig16 executes the comparison.
func runFig16(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	tb := res.AddTable("modes",
		colS("mode"), colI("migrations"), colI("cross-node"),
		colI("multi-node threads"), colI("nodes touched"))
	err := sweep(ctx, obs, workload.AllModes, modePhase, func(_ int, mode workload.Mode) error {
		r, err := newRig(c, mode, nil)
		if err != nil {
			return err
		}
		mt := newLifespan(r.EnsureBus(), r.Machine.Topology())
		q := r.Engine.Submit(tpch.BuildQ6With(q6Fixed()))
		deadline := r.Machine.Now() + r.Machine.Timebase().Deadline
		for !q.Done() && r.Machine.Now() < deadline {
			r.Tick()
		}
		if !q.Done() {
			return fmt.Errorf("experiments: fig16 %v timed out", mode)
		}
		migrations, crossNode := mt.MigrationCount()
		multiNode := 0
		for _, n := range mt.NodesUsed() {
			if n > 1 {
				multiNode++
			}
		}
		topo := r.Machine.Topology()
		nodesSeen := map[int]bool{}
		for _, cores := range mt.CoresUsed() {
			for _, core := range cores {
				nodesSeen[int(topo.NodeOf(core))] = true
			}
		}
		tb.AddRow(mode.String(), migrations, crossNode, multiNode, len(nodesSeen))
		res.AddArtifact("lifespan "+mode.String(), mt.Render(16, 16))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
