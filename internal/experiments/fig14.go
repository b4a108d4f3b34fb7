package experiments

import (
	"context"
	"fmt"

	"elasticore/internal/db"
	"elasticore/internal/workload"
)

// fig14.go reproduces Figure 14: per-socket memory-access metrics at the
// highest concurrency of the thetasubselect workload — (a) L3 load
// misses, (b) memory throughput, (c) HT traffic — across the four modes.

// runFig14 executes the comparison.
func runFig14(ctx context.Context, c Config, obs Observer) (*Result, error) {
	// One row of cells per mode: per-socket L3 misses, per-socket memory
	// throughput (GB/s), HT GB/s and total L3 misses.
	var rows [][]any
	sockets := 0
	err := sweep(ctx, obs, workload.AllModes, modePhase, func(_ int, mode workload.Mode) error {
		r, err := newRig(c, mode, nil)
		if err != nil {
			return err
		}
		d := &workload.Driver{Rig: r, QueriesPerClient: 1}
		ph := d.Run(c.Clients, func(cl, k int) *db.Plan { return thetaPlan(0.45) })
		sockets = len(ph.Window.Nodes)
		cells := []any{mode.String()}
		var total uint64
		for _, n := range ph.Window.Nodes {
			cells = append(cells, n.L3Misses)
			total += n.L3Misses
		}
		for _, tp := range perNodeIMCThroughput(r.Machine.Topology(), ph.Window) {
			cells = append(cells, tp)
		}
		ht := 0.0
		if ph.ElapsedSeconds > 0 {
			ht = float64(ph.Window.TotalHTBytes()) / ph.ElapsedSeconds / 1e9
		}
		rows = append(rows, append(cells, ht, total))
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The socket count is a property of the machine model, so the table
	// schema is built from the measurements.
	cols := []Column{colS("mode")}
	for s := 0; s < sockets; s++ {
		cols = append(cols, colI(fmt.Sprintf("L3miss S%d", s)))
	}
	for s := 0; s < sockets; s++ {
		cols = append(cols, colF(fmt.Sprintf("memTP GB/s S%d", s), 3))
	}
	cols = append(cols, colF("HT GB/s", 3), colI("L3 total"))
	res := &Result{}
	tb := res.AddTable("sockets", cols...)
	for _, cells := range rows {
		tb.AddRow(cells...)
	}
	res.AddMetric("sockets", float64(sockets), "")
	return res, nil
}
