package experiments

import (
	"context"
	"fmt"

	"elasticore/internal/db"
	"elasticore/internal/workload"
)

// fig18.go reproduces Figure 18: the stable-phases workload — each of the
// 22 queries executed concurrently by all clients, one query at a time —
// comparing {OS, Adaptive} x {MonetDB-like, SQL-Server-like}, with
// per-socket memory-throughput timelines.

// fig18Config is one {scheduler} x {engine flavour} point.
type fig18Config struct {
	label     string
	mode      workload.Mode
	placement db.Placement
}

// fig18Configs is the four-way grid.
var fig18Configs = []fig18Config{
	{"OS/MonetDB", workload.ModeOS, db.PlacementOS},
	{"Adaptive/MonetDB", workload.ModeAdaptive, db.PlacementOS},
	{"OS/SQLServer", workload.ModeOS, db.PlacementNUMAAware},
	{"Adaptive/SQLServer", workload.ModeAdaptive, db.PlacementNUMAAware},
}

// runFig18 executes the four configurations.
func runFig18(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	summary := res.AddTable("runs",
		colS("config"), colF("total (s)", 3), colF("mean memTP GB/s", 3), colI("samples"))
	var timeline *Table
	label := func(cfg fig18Config) string { return cfg.label }
	err := sweep(ctx, obs, fig18Configs, label, func(_ int, cfg fig18Config) error {
		cc := c
		cc.Placement = cfg.placement
		r, err := newRig(cc, cfg.mode, nil)
		if err != nil {
			return err
		}
		topo := r.Machine.Topology()
		if timeline == nil {
			cols := []Column{colS("config"), colF("t(s)", 4), colI("allocated")}
			for s := 0; s < topo.NodeCount; s++ {
				cols = append(cols, colF(fmt.Sprintf("memTP GB/s S%d", s), 3))
			}
			timeline = res.AddTable("timeline", cols...)
		}
		sampleEvery := 0.002
		phases := workload.StablePhases(r, c.Clients, sampleEvery)
		var offset, totalSeconds, tpSum float64
		var tpN, samples int
		for _, ph := range phases {
			for _, s := range ph.Samples {
				perSocket := perNodeIMCThroughput(topo, s.Window)
				var total float64
				cells := []any{cfg.label, offset + s.AtSeconds, s.Allocated}
				for _, v := range perSocket {
					total += v
					cells = append(cells, v)
				}
				tpSum += total
				tpN++
				samples++
				timeline.AddRow(cells...)
			}
			offset += ph.ElapsedSeconds
			totalSeconds += ph.ElapsedSeconds
		}
		meanTP := 0.0
		if tpN > 0 {
			meanTP = tpSum / float64(tpN)
		}
		summary.AddRow(cfg.label, totalSeconds, meanTP, samples)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
