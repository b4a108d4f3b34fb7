package experiments

import (
	"context"
	"fmt"

	"elasticore/internal/db"
	"elasticore/internal/workload"
)

// fig15.go reproduces Figure 15: L3 load misses of the thetasubselect
// workload across selectivities {2,4,8,16,32,64,100}% for the four modes.

// fig15Selectivities is the paper's sweep.
var fig15Selectivities = []float64{0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.0}

// runFig15 executes the sweep.
func runFig15(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	tbl := res.AddTable("sweep",
		colS("mode"), colF("selectivity", 2), colI("L3 misses"))
	selPhase := func(sel float64) string { return fmt.Sprintf("selectivity=%.0f%%", sel*100) }
	err := sweep(ctx, obs, fig15Selectivities, selPhase, func(_ int, sel float64) error {
		for _, mode := range workload.AllModes {
			r, err := newRig(c, mode, nil)
			if err != nil {
				return err
			}
			d := &workload.Driver{Rig: r, QueriesPerClient: 1}
			ph := d.Run(c.Clients, func(cl, k int) *db.Plan { return thetaPlan(sel) })
			tbl.AddRow(mode.String(), sel, ph.Window.TotalL3Misses())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
