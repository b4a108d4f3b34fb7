package experiments

import (
	"context"

	"elasticore/internal/db"
	"elasticore/internal/workload"
)

// fig13.go reproduces Figure 13: the thetasubselect workload (45%
// selectivity over l_quantity) under increasing concurrency across the
// four configurations {OS, Dense, Sparse, Adaptive}, reporting
// (a) throughput, (b) CPU load, (c) tasks, (d) stolen tasks.

// runFig13 executes the sweep.
func runFig13(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	tbl := res.AddTable("sweep",
		colS("mode"), colI("users"), colF("q/s", 3), colF("cpu%", 2), colI("tasks"), colI("stolen"))
	err := sweep(ctx, obs, c.Users, usersPhase, func(_, users int) error {
		for _, mode := range workload.AllModes {
			r, err := newRig(c, mode, nil)
			if err != nil {
				return err
			}
			tasksBefore := r.Engine.TasksExecuted
			d := &workload.Driver{Rig: r, QueriesPerClient: 1}
			ph := d.Run(users, func(cl, k int) *db.Plan { return thetaPlan(0.45) })
			tbl.AddRow(mode.String(), users, ph.Throughput, ph.Window.CPULoad(nil),
				r.Engine.TasksExecuted-tasksBefore, ph.Sched.StolenTasks)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
