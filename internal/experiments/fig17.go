package experiments

import (
	"context"
	"fmt"

	"elasticore/internal/db"
	"elasticore/internal/elastic"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// fig17.go reproduces Figure 17: Q6 with a single client comparing the
// mechanism's two state-transition strategies — CPU load and the HT/IMC
// traffic ratio — against the OS baseline, reporting response time, HT
// traffic and L3 misses.

// runFig17 executes the comparison. The OS baseline appears once under
// strategy "-"; each mechanism mode appears under both strategies.
func runFig17(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	tb := res.AddTable("strategies",
		colS("mode"), colS("strategy"), colF("resp (s)", 3), colF("HT MB/s", 2), colI("L3 misses"))
	type combo struct {
		mode     workload.Mode
		strategy elastic.Strategy
		name     string
	}
	combos := []combo{{workload.ModeOS, nil, "-"}}
	for _, mode := range []workload.Mode{workload.ModeDense, workload.ModeSparse, workload.ModeAdaptive} {
		combos = append(combos,
			combo{mode, elastic.CPULoadStrategy{}, "cpu-load"},
			combo{mode, elastic.HTIMCStrategy{}, "ht-imc"},
		)
	}
	comboPhase := func(cb combo) string { return fmt.Sprintf("mode=%s strategy=%s", cb.mode, cb.name) }
	err := sweep(ctx, obs, combos, comboPhase, func(_ int, cb combo) error {
		r, err := newRig(c, cb.mode, cb.strategy)
		if err != nil {
			return err
		}
		d := &workload.Driver{Rig: r, QueriesPerClient: 1}
		p := q6Fixed()
		ph := d.Run(1, func(cl, k int) *db.Plan { return tpch.BuildQ6With(p) })
		htMBPerS := 0.0
		if ph.ElapsedSeconds > 0 {
			htMBPerS = mb(ph.Window.TotalHTBytes()) / ph.ElapsedSeconds
		}
		tb.AddRow(cb.mode.String(), cb.name, ph.MeanLatencySeconds, htMBPerS,
			ph.Window.TotalL3Misses())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
