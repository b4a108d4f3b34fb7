package experiments

import (
	"context"

	"elasticore/internal/metrics"
	"elasticore/internal/workload"
)

// fig19.go reproduces Figure 19: the mixed-phases workload split per
// query — per-query speedup of each mechanism mode over the OS scheduler,
// and the per-query HT/IMC ratio (smaller is more NUMA-friendly) — for
// both the MonetDB-like and the SQL-Server-like engine.

// mechModes are the three mechanism modes compared against the OS.
var mechModes = []workload.Mode{workload.ModeDense, workload.ModeSparse, workload.ModeAdaptive}

// runFig19 executes the per-query mixed workload for one engine flavour
// across all four modes.
func runFig19(ctx context.Context, c Config, obs Observer) (*Result, error) {
	perMode := make(map[workload.Mode][]workload.QueryPhase)
	err := sweep(ctx, obs, workload.AllModes, modePhase, func(_ int, mode workload.Mode) error {
		r, err := newRig(c, mode, nil)
		if err != nil {
			return err
		}
		perMode[mode] = workload.MixedPhases(r, c.Clients)
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{}
	cols := []Column{colI("query")}
	for _, mode := range workload.AllModes {
		cols = append(cols, colF("lat(s) "+mode.String(), 3))
	}
	for _, mode := range workload.AllModes {
		cols = append(cols, colF("ratio "+mode.String(), 3))
	}
	for _, mode := range mechModes {
		cols = append(cols, colF("speedup "+mode.String(), 2))
	}
	tb := res.AddTable("queries", cols...)

	n := len(perMode[workload.ModeOS])
	var speedups, improvements []float64
	for i := 0; i < n; i++ {
		osLat := perMode[workload.ModeOS][i].MeanLatencySeconds
		cells := []any{perMode[workload.ModeOS][i].QueryNumber}
		for _, mode := range workload.AllModes {
			cells = append(cells, perMode[mode][i].MeanLatencySeconds)
		}
		for _, mode := range workload.AllModes {
			cells = append(cells, perMode[mode][i].HTIMCRatio())
		}
		var adaptiveSpeedup float64
		for _, mode := range mechModes {
			speedup := 0.0
			if lat := perMode[mode][i].MeanLatencySeconds; lat > 0 {
				speedup = osLat / lat
			}
			if mode == workload.ModeAdaptive {
				adaptiveSpeedup = speedup
			}
			cells = append(cells, speedup)
		}
		tb.AddRow(cells...)
		speedups = append(speedups, adaptiveSpeedup)
		if ar := perMode[workload.ModeAdaptive][i].HTIMCRatio(); ar > 0 {
			improvements = append(improvements, perMode[workload.ModeOS][i].HTIMCRatio()/ar)
		}
	}
	res.AddMetric("max_speedup", metrics.Max(speedups), "x")
	res.AddMetric("mean_speedup", metrics.Mean(speedups), "x")
	res.AddMetric("max_ratio_improvement", metrics.Max(improvements), "x")
	res.AddMetric("mean_ratio_improvement", metrics.Mean(improvements), "x")
	return res, nil
}
