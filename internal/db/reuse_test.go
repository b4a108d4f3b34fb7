package db_test

import (
	"reflect"
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/numa"
	"elasticore/internal/sched"
	"elasticore/internal/tpch"
)

// reuse_test.go is the reuse differential of intermediate lifetimes: an
// intermediate goes back to its engine's pool when its last reader's stage
// drains, mid-query, and whatever stage draws it next — of this query or of
// another one in flight — gets storage still holding its values.

// tpchRig is a fresh SF 0.002 TPC-H engine, its pool stocked with poisoned
// buffers when stock is set.
func tpchRig(t *testing.T, stock bool) (*numa.Machine, *sched.Scheduler, *db.Engine) {
	t.Helper()
	m := numa.NewMachine(numa.Opteron8387())
	sc := sched.New(m, sched.Config{})
	store := db.NewStore(m)
	if _, err := tpch.Load(store, tpch.Config{SF: 0.002}); err != nil {
		t.Fatal(err)
	}
	eng, err := db.NewEngine(store, db.Config{Scheduler: sc, PID: 100})
	if err != nil {
		t.Fatal(err)
	}
	if stock {
		db.StockPool(eng, 5, 512, 1<<14)
	}
	return m, sc, eng
}

// outcome is what a query leaves behind: its results and its latency.
type outcome struct {
	scalars map[string]float64
	ints    map[string][]int64
	floats  map[string][]float64
	latency uint64
}

// runTPCH runs the 22 queries to completion on eng, all submitted at once
// or one at a time, and returns their outcomes (read before any query is
// released).
func runTPCH(t *testing.T, m *numa.Machine, sc *sched.Scheduler, eng *db.Engine, plans []*db.Plan) []outcome {
	t.Helper()
	qs := make([]*db.Query, len(plans))
	for i, p := range plans {
		qs[i] = eng.Submit(p)
	}
	done := func() bool {
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

// TestQueriesInFlightMatchQueriesAlone submits all 22 TPC-H queries at once
// to one engine, so the storage of intermediates that die mid-query is drawn
// again by the stages of the others in flight. Every query's results must
// equal those of the query run alone on a fresh engine. The in-flight run is
// repeated on an engine whose pool starts stocked with poisoned buffers of
// random sizes: results, every query's latency, the task count and every
// counter of the simulated machine must equal the run from an empty pool —
// which buffers a stage is handed never reaches the model. After the last
// release each pool is at rest: every buffer drawn is back, none filed
// twice.
func TestQueriesInFlightMatchQueriesAlone(t *testing.T) {
	plans := make([]*db.Plan, tpch.QueryCount)
	for n := 1; n <= tpch.QueryCount; n++ {
		plans[n-1] = tpch.Build(n, uint64(n))
	}
	m, sc, eng := tpchRig(t, false)
	inFlight := runTPCH(t, m, sc, eng, plans)
	if err := db.PoolAtRest(eng); err != nil {
		t.Errorf("in flight: %v", err)
	}
	sm, ssc, stocked := tpchRig(t, true)
	dirty := runTPCH(t, sm, ssc, stocked, plans)
	if err := db.PoolAtRest(stocked); err != nil {
		t.Errorf("in flight on a stocked pool: %v", err)
	}
	if !reflect.DeepEqual(m.Snapshot(), sm.Snapshot()) || eng.TasksExecuted != stocked.TasksExecuted {
		t.Error("the simulated machine ran differently on a stocked pool")
	}
	results := 0
	for i, p := range plans {
		if !reflect.DeepEqual(dirty[i], inFlight[i]) {
			t.Errorf("%s: outcome on a stocked pool %+v, from an empty pool %+v", p.Name, dirty[i], inFlight[i])
		}
		am, asc, alone := tpchRig(t, false)
		got := runTPCH(t, am, asc, alone, plans[i:i+1])[0]
		results += len(got.scalars) + len(got.ints)
		got.latency = inFlight[i].latency // alone, a query runs faster
		if !reflect.DeepEqual(got, inFlight[i]) {
			t.Errorf("%s: results in flight %+v, alone %+v", p.Name, inFlight[i], got)
		}
		if err := db.PoolAtRest(alone); err != nil {
			t.Errorf("%s alone: %v", p.Name, err)
		}
	}
	if results < tpch.QueryCount {
		t.Errorf("the 22 queries left %d results", results)
	}
}

// TestViewsAreNeverWrittenNorPooled: a projection through a dense candidate
// list is a view of the base column — Q13, Q18 and Q22 make them — and so
// is a replayed selection of a list the engine's recycler keeps; a view
// must never be written nor filed in the pool, where a later stage would
// write over the store or over the kept list. All 22 queries run at once,
// three times over, on an engine whose pool starts stocked with poisoned
// buffers, and all are released: every base column then hashes as it did
// before, every list the recycler kept hashes as it did when the pass that
// kept it ended, and the pool is at rest, none of its buffers inside a
// base column or a kept list.
func TestViewsAreNeverWrittenNorPooled(t *testing.T) {
	plans := make([]*db.Plan, tpch.QueryCount)
	views := 0
	for n := 1; n <= tpch.QueryCount; n++ {
		plans[n-1] = tpch.Build(n, uint64(n))
		dense := map[string]bool{}
		for _, op := range plans[n-1].Ops {
			switch {
			case op.Kind == db.OpScan && reflect.DeepEqual(op.Pred, db.PredAll()):
				dense[op.Out] = true
			case op.Kind == db.OpProject && dense[op.In]:
				views++
			}
		}
	}
	if views == 0 {
		t.Fatal("no TPC-H plan projects through a dense candidate list")
	}
	m, sc, eng := tpchRig(t, true)
	before := db.BaseHashes(eng)
	kept := map[*int64]uint64{}
	for pass := 1; pass <= 3; pass++ {
		runTPCH(t, m, sc, eng, plans)
		for list, h := range db.RecycledHashes(eng) {
			if was, ok := kept[list]; !ok {
				kept[list] = h
			} else if h != was {
				t.Errorf("pass %d: a recycled list changed", pass)
			}
		}
	}
	if len(kept) == 0 {
		t.Fatal("the recycler kept no list")
	}
	for col, h := range db.BaseHashes(eng) {
		if h != before[col] {
			t.Errorf("base column %s changed", col)
		}
	}
	if err := db.PoolAtRest(eng); err != nil {
		t.Error(err)
	}
}

// TestViewListsOutliveTheirViews: a projection that only maps, sums and
// grouped sums read is a view of its candidate list's ids, so the list must
// live until the last of those reads, past its own last reader — Q1's c1
// dies at the grouped sum that reads k and v through it, Q3's cl2 at the
// one that reads lok. All 22 queries run at once, twice, with every job on
// a helper, on an engine whose pool starts stocked with poisoned buffers:
// a list that went back to the pool early would be drawn and overwritten by
// a stage of another query while a view over it is still read. Every
// result must equal that of the query alone on a fresh engine whose jobs
// run at their joins, and after each pass the pool is at rest.
func TestViewListsOutliveTheirViews(t *testing.T) {
	plans := make([]*db.Plan, tpch.QueryCount)
	for n := 1; n <= tpch.QueryCount; n++ {
		plans[n-1] = tpch.Build(n, uint64(n))
	}
	for _, n := range []int{1, 3} {
		if len(db.ViewListDeaths(plans[n-1])) == 0 {
			t.Fatalf("Q%d: no candidate list lives on under a view", n)
		}
	}
	alone := make([]outcome, len(plans))
	for i := range plans {
		am, asc, eng := tpchRig(t, false)
		db.SetHandoff(eng, db.HandoffNone)
		alone[i] = runTPCH(t, am, asc, eng, plans[i:i+1])[0]
	}
	m, sc, eng := tpchRig(t, true)
	db.SetHandoff(eng, db.HandoffAll)
	for pass := 1; pass <= 2; pass++ {
		got := runTPCH(t, m, sc, eng, plans)
		for i, p := range plans {
			got[i].latency = alone[i].latency // in flight, a query runs slower
			if !reflect.DeepEqual(got[i], alone[i]) {
				t.Errorf("pass %d: %s in flight %+v, alone %+v", pass, p.Name, got[i], alone[i])
			}
		}
		if err := db.PoolAtRest(eng); err != nil {
			t.Errorf("pass %d: %v", pass, err)
		}
	}
}
