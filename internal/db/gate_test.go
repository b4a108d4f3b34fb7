package db_test

import (
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/faults"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// TestGateTracksDispatch runs the 22 TPC-H queries at once, twice over,
// under PlacementOS and checks every query's gate against its task queue:
// open exactly while the queue holds a task or the query is done. It
// checks at every run slice, task completion and migration, which fall
// between the dispatches and enqueues of the slices that run, and after
// every quantum. Mid-run the machine crashes: the first round turns into
// zombies that finish on stalled and then recovered cores without a
// requester. Every handle, once released, must keep its gate open, so a
// worker of it that wakes late runs and exits. And the gates must do
// their work: most spurious wake-ups are re-parks behind a shut gate,
// which no output shows, so a gate left open is caught here.
func TestGateTracksDispatch(t *testing.T) {
	bus := obs.NewBus(0)
	r, err := workload.NewRig(workload.Options{SF: 0.002, Seed: 5, Mode: workload.ModeDense, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	var handles []*db.Query
	seen := map[*db.Query]bool{}
	check := func(at string) {
		t.Helper()
		for _, q := range db.Tracked(r.Engine) {
			if !seen[q] {
				seen[q] = true
				handles = append(handles, q)
			}
		}
		if err := db.GateError(handles); err != nil {
			t.Fatalf("%s at cycle %d: %v", at, r.Machine.Now(), err)
		}
	}
	for _, kind := range []obs.Kind{obs.KindRunSlice, obs.KindTaskDone, obs.KindMigration} {
		bus.Subscribe(kind, func(e obs.Event) { check(e.Kind.String()) })
	}
	a := &workload.Admission{Rig: r, MaxInFlight: tpch.QueryCount}
	plan := func(_ int, tag int64) *db.Plan { return tpch.Build(int(tag)%tpch.QueryCount+1, uint64(tag)) }
	tick := func() {
		r.Tick()
		a.Collect(r.Machine.Now())
		a.Fill(r.Machine.Now(), plan)
		check("after the quantum")
	}
	offer := func(from int64) {
		for tag := from; tag < from+tpch.QueryCount; tag++ {
			a.Offer(r.Machine.Now(), r.Machine.Now(), tag)
		}
		a.Fill(r.Machine.Now(), plan)
	}
	offer(0)
	for range 40 {
		tick()
	}
	zombies := a.InFlight()
	cores := r.Machine.Topology().TotalCores()
	for c := range cores {
		r.Sched.SetCoreSlowdown(numa.CoreID(c), faults.StallFactor)
	}
	a.Down = true
	a.FailAll()
	for range 20 {
		tick()
	}
	for c := range cores {
		r.Sched.SetCoreSlowdown(numa.CoreID(c), 1)
	}
	a.Down = false
	offer(tpch.QueryCount)
	for i := 0; !a.Drained(); i++ {
		if i == 1_000_000 {
			t.Fatal("the zombies and the second round never finished")
		}
		tick()
	}
	if zombies == 0 || a.Failed+a.Completed != 2*tpch.QueryCount {
		t.Fatalf("%d zombies; failed %d and completed %d of %d", zombies, a.Failed, a.Completed, 2*tpch.QueryCount)
	}
	if len(db.Tracked(r.Engine)) != 0 || len(handles) != a.Completed+zombies {
		t.Fatalf("%d handles seen, %d still tracked; want %d, all released", len(handles), len(db.Tracked(r.Engine)), a.Completed+zombies)
	}
	check("once drained")
	var reparks uint64
	for _, q := range handles {
		reparks += db.Reparks(q)
	}
	st := r.Sched.Stats()
	t.Logf("%d zombies; %d wake-ups, %d spurious, %d of them re-parked behind a gate", zombies, st.Wakeups, st.SpuriousWakeups, reparks)
	if 2*reparks <= st.SpuriousWakeups {
		t.Errorf("%d of %d spurious wake-ups re-parked behind a gate, want most", reparks, st.SpuriousWakeups)
	}
	if n := r.Sched.LiveThreads(); n != 1 {
		t.Errorf("%d threads live once drained, want the server alone", n)
	}
}
