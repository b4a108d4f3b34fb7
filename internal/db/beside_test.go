package db_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/faults"
	"elasticore/internal/hashmix"
	"elasticore/internal/numa"
	"elasticore/internal/sched"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// beside_test.go is the differential and stress test of kernels run beside
// the model (beside.go): a kernel that a helper ran while the simulation
// went on and one that ran at its join must leave everything the model and
// the results show equal, and no storage a job still reads may go back to
// the pool or to another query.

// besidePlans is the 80 Q6 combinations and the 22 TPC-H queries, to be
// put in flight at once.
func besidePlans() []*db.Plan {
	plans := q6Grid()
	for n := 1; n <= tpch.QueryCount; n++ {
		plans = append(plans, tpch.Build(n, uint64(n)))
	}
	return plans
}

// TestKernelsBesideTheModel puts the 80 Q6 combinations and the 22 TPC-H
// queries in flight at once, three passes, so the recycler fills lists in
// the first and replays them later, on an engine whose every job is run by
// a helper and on one whose every job runs at its join, at GOMAXPROCS 1 and
// 4. Every outcome, the task count, every counter of the simulated
// machine, the scheduler's stats and every bus event must be equal, and
// both pools at rest after each pass. Then each plan is stepped by hand on
// both sides, one random budget after another, and every Step must use the
// same cycles, finish at the same Step and leave the same numa counters.
func TestKernelsBesideTheModel(t *testing.T) {
	plans := besidePlans()
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m, sc, eng, events := recordedRig(t)
			tm, tsc, twin, twinEvents := recordedRig(t)
			db.SetHandoff(eng, db.HandoffAll)
			db.SetHandoff(twin, db.HandoffNone)
			for pass := 1; pass <= 3; pass++ {
				got := runBatch(t, m, sc, eng, false, plans)
				want := runBatch(t, tm, tsc, twin, false, plans)
				for i, p := range plans {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("pass %d: %s beside %+v, at its joins %+v", pass, p.Name, got[i], want[i])
					}
				}
				for _, e := range []*db.Engine{eng, twin} {
					if err := db.PoolAtRest(e); err != nil {
						t.Fatalf("pass %d: %v", pass, err)
					}
				}
			}
			if _, replayed, _ := db.RecyclerCounts(eng); replayed == 0 {
				t.Error("the recycler replayed nothing")
			}
			if eng.TasksExecuted != twin.TasksExecuted {
				t.Errorf("tasks executed %d, at their joins %d", eng.TasksExecuted, twin.TasksExecuted)
			}
			if !reflect.DeepEqual(m.Snapshot(), tm.Snapshot()) {
				t.Error("the numa counters differ from the twin's")
			}
			if sc.Stats() != tsc.Stats() {
				t.Errorf("scheduler stats %+v, twin %+v", sc.Stats(), tsc.Stats())
			}
			if len(*events) == 0 || !reflect.DeepEqual(*events, *twinEvents) {
				t.Errorf("%d bus events, twin %d: the streams differ", len(*events), len(*twinEvents))
			}
			helper, join, waited := db.JobCounts(eng)
			t.Logf("beside: %d jobs ran on a helper (%d waited for), %d at their joins", helper, waited, join)
			if helper == 0 || join != 0 {
				t.Errorf("beside: %d jobs on a helper and %d at their joins, want all on a helper", helper, join)
			}
			if helper, join, _ := db.JobCounts(twin); helper != 0 || join == 0 {
				t.Errorf("twin: %d jobs on a helper and %d at their joins, want all at their joins", helper, join)
			}
			stepBothByHand(t, plans, m, eng, tm, twin)
		})
	}
}

// stepBothByHand plans each plan stage by stage on a query of each engine
// and steps every task on both, with one SplitMix64-random budget per Step
// — below a chunk's cost, around it and far above it — comparing each
// Step's cycles, its done flag and the numa counters it leaves, then the
// query's results.
func stepBothByHand(t *testing.T, plans []*db.Plan, m *numa.Machine, eng *db.Engine, tm *numa.Machine, twin *db.Engine) {
	t.Helper()
	rng := hashmix.Stream{State: 42}
	budget := func() uint64 {
		switch r := rng.Next(); r % 3 {
		case 0:
			return 300 + r%3000
		case 1:
			return 5000 + r%40000
		}
		return 1 << 40
	}
	ctx := sched.ExecContext{Machine: m, PID: 100}
	tctx := sched.ExecContext{Machine: tm, PID: 100}
	steps := 0
	for pi, p := range plans {
		q, tq := db.HandQuery(eng, p), db.HandQuery(twin, p)
		for oi := range p.Ops {
			tasks, ttasks := db.PlanStep(q, oi), db.PlanStep(tq, oi)
			if len(tasks) != len(ttasks) {
				t.Fatalf("%s op %d: %d tasks, twin %d", p.Name, oi, len(tasks), len(ttasks))
			}
			for ti := range tasks {
				ctx.Core = numa.CoreID((pi + oi + 3*ti) % m.Topology().TotalCores())
				tctx.Core = ctx.Core
				for n := 0; ; n++ {
					b := budget()
					used, done := tasks[ti].Step(&ctx, b)
					tused, tdone := ttasks[ti].Step(&tctx, b)
					steps++
					if used != tused || done != tdone {
						t.Fatalf("%s op %d task %d step %d (budget %d): used %d done %v, twin %d %v", p.Name, oi, ti, n, b, used, done, tused, tdone)
					}
					if done {
						break
					}
				}
				if !reflect.DeepEqual(m.Snapshot(), tm.Snapshot()) {
					t.Fatalf("%s op %d task %d: the numa counters differ from the twin's", p.Name, oi, ti)
				}
			}
		}
		var got, want outcome
		got.scalars, got.ints, got.floats = db.Results(q)
		want.scalars, want.ints, want.floats = db.Results(tq)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s stepped by hand: beside %+v, at its joins %+v", p.Name, got, want)
		}
		db.ReleaseHand(eng, q)
		db.ReleaseHand(twin, tq)
	}
	t.Logf("%d Steps by hand agree", steps)
	for _, e := range []*db.Engine{eng, twin} {
		if err := db.PoolAtRest(e); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJobsOutliveACrash crashes a machine while 24 of the TPC-H queries
// run on it, every job handed to a helper: the admission turns them into
// zombies (FailAll) and every core stalls mid-stage, with jobs to join.
// After every quantum through the crash, the recovery and the reaping of
// the zombies, no job that is not joined yet may belong to a released
// query or read or write storage filed in the pool; at the end the pool
// must be at rest.
func TestJobsOutliveACrash(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			r, err := workload.NewRig(workload.Options{SF: 0.002, Seed: 3, Mode: workload.ModeDense})
			if err != nil {
				t.Fatal(err)
			}
			db.SetHandoff(r.Engine, db.HandoffAll)
			a := &workload.Admission{Rig: r, MaxInFlight: 24}
			plan := func(k int, tag int64) *db.Plan {
				return tpch.Build(int(tag)%tpch.QueryCount+1, uint64(tag))
			}
			for tag := int64(0); tag < 48; tag++ {
				a.Offer(r.Machine.Now(), r.Machine.Now(), tag)
			}
			a.Fill(r.Machine.Now(), plan)
			open := 0
			tick := func() {
				r.Tick()
				a.Collect(r.Machine.Now())
				a.Fill(r.Machine.Now(), plan)
				var err error
				if open, err = db.OpenJobs(r.Engine); err != nil {
					t.Fatalf("at cycle %d: %v", r.Machine.Now(), err)
				}
			}
			for i := 0; open < 8; i++ {
				if i == 100_000 {
					t.Fatalf("%d queries in flight and %d jobs to join before the crash", a.InFlight(), open)
				}
				tick()
			}
			t.Logf("the machine crashes at cycle %d with %d queries in flight and %d jobs to join", r.Machine.Now(), a.InFlight(), open)
			cores := r.Machine.Topology().TotalCores()
			for c := range cores {
				r.Sched.SetCoreSlowdown(numa.CoreID(c), faults.StallFactor)
			}
			a.Down = true
			a.FailAll()
			for range 200 {
				tick()
			}
			for c := range cores {
				r.Sched.SetCoreSlowdown(numa.CoreID(c), 1)
			}
			a.Down = false
			for i := 0; !a.Drained(); i++ {
				if i == 1_000_000 {
					t.Fatal("the zombies and the rest of the queue never finished")
				}
				tick()
			}
			if a.Failed == 0 || a.Failed+a.Completed != 48 {
				t.Errorf("failed %d, completed %d of 48", a.Failed, a.Completed)
			}
			if err := db.PoolAtRest(r.Engine); err != nil {
				t.Fatal(err)
			}
			helper, join, waited := db.JobCounts(r.Engine)
			t.Logf("%d jobs ran on a helper (%d waited for), %d at their joins", helper, waited, join)
		})
	}
}
