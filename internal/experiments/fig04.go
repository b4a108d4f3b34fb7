package experiments

import (
	"context"
	"fmt"

	"elasticore/internal/db"
	"elasticore/internal/numa"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// fig04.go reproduces Figure 4: TPC-H Q6 with an increasing number of
// concurrent clients, comparing the hand-coded C kernel under preset
// affinities (Dense/C, Sparse/C, OS/C) against the Volcano engine under
// the plain OS scheduler (OS/MonetDB). Reported per user count:
// (a) throughput, (b) minor page faults/s, (c) HT traffic MB/s.

// runFig4 executes the sweep and encodes the generic result.
func runFig4(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	tbl := res.AddTable("sweep",
		colS("config"), colI("users"), colF("q/s", 3), colF("faults/s", 2), colF("HT MB/s", 2))
	err := sweep(ctx, obs, c.Users, usersPhase, func(_, users int) error {
		// OS/MonetDB: Volcano engine, no mechanism.
		r, err := newRig(c, workload.ModeOS, nil)
		if err != nil {
			return err
		}
		d := &workload.Driver{Rig: r, QueriesPerClient: 1}
		p := q6Fixed()
		ph := d.Run(users, func(cl, k int) *db.Plan { return tpch.BuildQ6With(p) })
		addFig4Measurement(tbl, "OS/MonetDB", users, ph.Throughput, ph.ElapsedSeconds, ph.Window)

		// The C kernel under its three affinity policies.
		for _, aff := range []db.RawAffinity{db.RawOS, db.RawDense, db.RawSparse} {
			if err := runFig4Raw(c, tbl, users, aff); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// addFig4Measurement appends one (configuration, users) row: throughput,
// and the window's minor faults and HT megabytes per virtual second.
func addFig4Measurement(tbl *Table, config string, users int, tput, elapsed float64, w numa.Counters) {
	var faults, ht float64
	if elapsed > 0 {
		faults = float64(w.TotalMinorFaults()) / elapsed
		ht = mb(w.TotalHTBytes()) / elapsed
	}
	tbl.AddRow(config, users, tput, faults, ht)
}

// runFig4Raw launches one raw-kernel run per user (each user is its own
// process of 4 fused-scan threads, Section II-B) and measures the window.
func runFig4Raw(c Config, tbl *Table, users int, aff db.RawAffinity) error {
	r, err := newRig(c, workload.ModeOS, nil)
	if err != nil {
		return err
	}
	start := r.Machine.Snapshot()
	startT := r.Machine.NowSeconds()
	kernels := make([]*db.RawQ6, users)
	for u := 0; u < users; u++ {
		k, err := db.SpawnRawQ6(r.Store, r.Sched, 1000+u, 4, aff)
		if err != nil {
			return err
		}
		kernels[u] = k
	}
	done := func() bool {
		for _, k := range kernels {
			if !k.Done() {
				return false
			}
		}
		return true
	}
	if !r.Sched.RunUntil(done, r.Machine.Timebase().Deadline) {
		return fmt.Errorf("experiments: raw kernels (%v, %d users) timed out", aff, users)
	}
	elapsed := r.Machine.NowSeconds() - startT
	w := r.Machine.Snapshot().Sub(start)
	var name string
	switch aff {
	case db.RawDense:
		name = "Dense/C"
	case db.RawSparse:
		name = "Sparse/C"
	default:
		name = "OS/C"
	}
	tput := 0.0
	if elapsed > 0 {
		tput = float64(users) / elapsed
	}
	addFig4Measurement(tbl, name, users, tput, elapsed, w)
	return nil
}
