package db_test

import (
	"reflect"
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
	"elasticore/internal/tpch"
)

// recycle_test.go is the differential of the recycler (recycle.go): a
// selection whose lists an engine kept is replayed, not computed, and
// nothing the model or a result shows may tell the two apart. The twin of
// every recycling engine is an identical one whose recycler is cleared
// before every Submit, so it computes every selection.

// recordedRig is tpchRig with every event of its lit scheduler and engine
// recorded.
func recordedRig(t *testing.T) (*numa.Machine, *sched.Scheduler, *db.Engine, *[]obs.Event) {
	t.Helper()
	m, sc, eng := tpchRig(t, false)
	bus := obs.NewBus(0)
	var events []obs.Event
	bus.SubscribeAll(func(e obs.Event) { events = append(events, e) })
	sc.SetBus(bus)
	eng.SetBus(bus, "")
	return m, sc, eng, &events
}

// runBatch submits plans at once to eng, runs them to completion and
// returns their outcomes, then releases them. A clearing engine's recycler
// is cleared before every Submit and every quantum, so it never sees a
// lineage three times and computes every selection.
func runBatch(t *testing.T, m *numa.Machine, sc *sched.Scheduler, eng *db.Engine, clearing bool, plans []*db.Plan) []outcome {
	t.Helper()
	qs := make([]*db.Query, len(plans))
	for i, p := range plans {
		if clearing {
			db.ClearRecycler(eng)
		}
		qs[i] = eng.Submit(p)
	}
	done := func() bool {
		if clearing {
			db.ClearRecycler(eng)
		}
		for _, q := range qs {
			if !q.Done() {
				return false
			}
		}
		return true
	}
	if !sc.RunUntil(done, m.Topology().SecondsToCycles(600)) {
		t.Fatal("the queries did not finish")
	}
	out := make([]outcome, len(qs))
	for i, q := range qs {
		o := &out[i]
		o.scalars, o.ints, o.floats = db.Results(q)
		o.latency = q.ElapsedCycles()
	}
	for _, q := range qs {
		eng.Release(q)
	}
	return out
}

// q6Grid is Q6 over every parameter combination: five years, eight
// discounts and two quantities.
func q6Grid() []*db.Plan {
	var plans []*db.Plan
	for year := int64(1993); year <= 1997; year++ {
		for d := 2; d <= 9; d++ {
			for _, qty := range []float64{24, 25} {
				plans = append(plans, tpch.BuildQ6With(tpch.Q6Params{Year: year, Discount: float64(d) / 100, Quantity: qty}))
			}
		}
	}
	return plans
}

// TestRecycledSelectionIsComputed runs three passes of the 80 Q6
// combinations and the 22 TPC-H queries at fixed seeds, each batch
// submitted at once, on a recycling engine and on its clearing twin. Every
// outcome (results and latency), the task count, every counter of the
// simulated machine, the scheduler's stats and every bus event — each run
// slice and each task's start and duration, which a task whose steps used
// other cycles would move — must be equal. The recycler must have replayed
// in the recycling run and not in the twin. By the third Q6 pass the table
// is settled: the pass keeps nothing new, and it replays every scan and
// every first refinement (twelve lineages, kept in the first pass). The
// grid's lists add up to about a sixth of the store's base columns, so the
// budget turns away some of the 80 second refinements, which the pass
// computes.
func TestRecycledSelectionIsComputed(t *testing.T) {
	q6 := q6Grid()
	queries := make([]*db.Plan, tpch.QueryCount)
	for n := 1; n <= tpch.QueryCount; n++ {
		queries[n-1] = tpch.Build(n, uint64(n))
	}
	m, sc, eng, events := recordedRig(t)
	tm, tsc, twin, twinEvents := recordedRig(t)
	for pass := 1; pass <= 3; pass++ {
		for _, batch := range []struct {
			name  string
			plans []*db.Plan
		}{{"Q6", q6}, {"TPC-H", queries}} {
			before, replayedBefore, keptBefore := db.RecyclerCounts(eng)
			got := runBatch(t, m, sc, eng, false, batch.plans)
			want := runBatch(t, tm, tsc, twin, true, batch.plans)
			for i, p := range batch.plans {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("pass %d %s: %s recycled %+v, computed %+v", pass, batch.name, p.Name, got[i], want[i])
				}
			}
			selections, replayed, kept := db.RecyclerCounts(eng)
			if pass == 3 && batch.name == "Q6" {
				t.Logf("the third Q6 pass replayed %d of %d selections", replayed-replayedBefore, selections-before)
				if selections-before != 3*len(q6) || replayed-replayedBefore < 2*len(q6) || kept != keptBefore {
					t.Errorf("the third Q6 pass replayed %d of %d selections and kept %d bytes more: want at least %d of %d and none",
						replayed-replayedBefore, selections-before, kept-keptBefore, 2*len(q6), 3*len(q6))
				}
			}
		}
	}
	if _, replayed, _ := db.RecyclerCounts(eng); replayed == 0 {
		t.Fatal("the recycling engine replayed nothing")
	}
	if _, replayed, _ := db.RecyclerCounts(twin); replayed != 0 {
		t.Fatalf("the clearing twin replayed %d selections", replayed)
	}
	if eng.TasksExecuted != twin.TasksExecuted {
		t.Errorf("tasks executed %d, twin %d", eng.TasksExecuted, twin.TasksExecuted)
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
	for _, e := range []*db.Engine{eng, twin} {
		if err := db.PoolAtRest(e); err != nil {
			t.Error(err)
		}
	}
}

// TestRecycledKeysAreExact: selections over one column whose predicates
// differ in one part of the key only — the form, one bound, one value of
// an IN list, or its order — never share an entry. Each runs three times
// in turn, so every one is kept (they are narrow, and fit the budget) and
// replayed, and each result must be the twin's, which computes them all;
// the pairs that pick other rows would show a shared entry there.
func TestRecycledKeysAreExact(t *testing.T) {
	int64Preds := []db.Pred{
		db.PredIRange(1, 30), db.PredIRange(2, 30), db.PredIRange(1, 31),
		db.PredIEq(1), db.PredINe(1),
		db.PredIIn(1, 5, 9), db.PredIIn(1, 5, 10), db.PredIIn(9, 5, 1), db.PredIIn(1, 5), db.PredIIn(1, 5, 9, 9),
	}
	floatPreds := []db.Pred{
		db.PredFRange(10, 12), db.PredFRange(11, 12), db.PredFRange(10, 13), db.PredFLess(3), db.PredFLess(4),
	}
	var plans []*db.Plan
	for i, p := range int64Preds {
		plans = append(plans, db.PlanSpec{Name: p.String(), Ops: []db.OpSpec{
			db.Scan("customer", "c_nationkey", "c", p),
			db.Refine("c", "customer", "c_custkey", "c2", int64Preds[(i+1)%len(int64Preds)]),
			db.Count("c2", "n"),
		}}.Lower())
	}
	for _, p := range floatPreds {
		plans = append(plans, db.PlanSpec{Name: p.String(), Ops: []db.OpSpec{
			db.Scan("lineitem", "l_quantity", "c", p),
			db.Refine("c", "lineitem", "l_quantity", "c2", floatPreds[0]),
			db.Count("c2", "n"),
		}}.Lower())
	}
	m, sc, eng := tpchRig(t, false)
	tm, tsc, twin := tpchRig(t, false)
	for pass := 1; pass <= 3; pass++ {
		for _, p := range plans {
			got := runBatch(t, m, sc, eng, false, []*db.Plan{p})[0]
			want := runBatch(t, tm, tsc, twin, true, []*db.Plan{p})[0]
			if !reflect.DeepEqual(got, want) {
				t.Errorf("pass %d: %s recycled %+v, computed %+v", pass, p.Name, got, want)
			}
		}
	}
	selections, replayed, _ := db.RecyclerCounts(eng)
	if want := 2 * len(plans); selections != 3*want || replayed != want {
		t.Errorf("%d selections, %d replayed: want %d and %d", selections, replayed, 3*want, want)
	}
}
