package experiments

import (
	"context"
	"time"

	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// overhead.go reproduces the mechanism-overhead measurement of Section V:
// "the flow of tokens in a 5x8 matrix to trigger a transition" — the cost
// of one control step (sample counters, evaluate the net, act) for each
// allocation mode. The paper measured dense 0.017 s < sparse 0.021 s <
// adaptive 0.031 s; the shape target is the same ordering with the
// adaptive mode the most expensive (it maintains the priority queue).

// overheadModes are the modes whose control step is timed.
var overheadModes = []workload.Mode{workload.ModeDense, workload.ModeSparse, workload.ModeAdaptive}

// runOverhead times steps Mechanism.Step calls per mode on a loaded rig
// with background work, in host wall-clock time, and counts the residency
// reads they made: the adaptive mode's extra work, exact on any host.
func runOverhead(ctx context.Context, c Config, obs Observer, steps int) (*Result, error) {
	res := &Result{}
	tb := res.AddTable("steps", colS("mode"), colD("per-step"), colI("residency reads"))
	err := sweep(ctx, obs, overheadModes, modePhase, func(_ int, mode workload.Mode) error {
		r, err := newRig(c, mode, nil)
		if err != nil {
			return err
		}
		// Background load so counters and residency are non-trivial.
		for i := 0; i < 8; i++ {
			r.Engine.Submit(tpch.BuildQ6(uint64(i)))
		}
		for i := 0; i < 20; i++ {
			r.Sched.Tick()
		}
		start, reads := time.Now(), r.Mech.ResidencyReads()
		for i := 0; i < steps; i++ {
			r.Mech.Step()
			r.Sched.Tick()
		}
		tb.AddRow(mode.String(), time.Since(start)/time.Duration(steps), int(r.Mech.ResidencyReads()-reads))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.AddMetric("steps", float64(steps), "")
	return res, nil
}
