package db

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
)

// pool_test.go pins the safety and cost properties of the buffer pool
// itself: Release is idempotent (a finished query can never donate the
// same backing array twice), and warmed-up get/put round trips run
// allocation-free for every pooled type.

// poolRig builds a minimal engine with one scannable table and returns a
// runner that executes a small filter+count plan to completion.
func poolRig(t *testing.T) (*Engine, func() *Query) {
	t.Helper()
	machine := numa.NewMachine(numa.Opteron8387())
	sc := sched.New(machine, sched.Config{})
	store := NewStore(machine)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i % 50)
	}
	if _, err := store.CreateTable("t", map[string]*BAT{"v": NewF64("v", vals)}); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(store, Config{Scheduler: sc, PID: 9, ParseCycles: -1})
	if err != nil {
		t.Fatal(err)
	}
	plan := lower("scan", Scan("t", "v", "c", PredFLess(25)), Count("c", "n"))
	run := func() *Query {
		q := eng.Submit(plan)
		if !sc.RunUntil(q.Done, machine.Topology().SecondsToCycles(10)) {
			t.Fatal("query did not finish")
		}
		return q
	}
	return eng, run
}

// poolDepth counts every buffer currently parked in the pool.
func poolDepth(p *bufPool) int {
	n := len(p.mif) + len(p.mii) + len(p.disp)
	for _, cl := range p.i64 {
		n += len(cl)
	}
	for _, cl := range p.f64 {
		n += len(cl)
	}
	return n
}

// TestReleaseIsIdempotent: releasing the same query twice must donate its
// buffers exactly once. Without the guard, the duplicate donation would
// hand one backing array to two later queries simultaneously. The guard
// lives on the handle, so it holds once the released query's body serves
// the next one: releasing the stale handle again leaves that query running,
// and once it has finished, its result lent.
func TestReleaseIsIdempotent(t *testing.T) {
	eng, run := poolRig(t)
	q := run()
	if q.vars["c"] != nil {
		t.Fatal("the count's input outlived the count")
	}
	want, body := q.Scalar("n"), q.queryBody
	eng.Release(q)
	after := poolDepth(&eng.pool)
	if after == 0 {
		t.Fatal("first Release returned nothing to the pool")
	}
	eng.Release(q)
	if got := poolDepth(&eng.pool); got != after {
		t.Fatalf("second Release changed pool depth %d -> %d; buffers double-donated", after, got)
	}
	if !q.released || q.queryBody != nil {
		t.Error("released flag not set, or the body still attached")
	}

	// The next query's candidate list is its result.
	next := eng.Submit(lower("scan", Scan("t", "v", "c", PredFLess(25))))
	if next.queryBody != body || next.Done() {
		t.Fatalf("the next query got body %p (released %p), done %v", next.queryBody, body, next.Done())
	}
	eng.Release(q)
	if next.Done() || next.queryBody != body || len(eng.spare) != 0 {
		t.Fatalf("releasing the stale handle again: next query done %v, body %p, %d bodies spare", next.Done(), next.queryBody, len(eng.spare))
	}
	if !eng.sched.RunUntil(next.Done, eng.machine.Topology().SecondsToCycles(10)) {
		t.Fatal("the next query did not finish")
	}
	lent := eng.pool.lent
	if lent == 0 {
		t.Fatal("the next query's result holds no pooled buffer")
	}
	eng.Release(q)
	if next.queryBody != body || eng.pool.lent != lent || len(eng.spare) != 0 {
		t.Fatalf("releasing the stale handle after the next query finished: body %p, %d buffers lent (want %d), %d bodies spare",
			next.queryBody, eng.pool.lent, lent, len(eng.spare))
	}
	if got := float64(next.Var("c").Rows()); got != want {
		t.Errorf("the next query kept %v rows, want %v", got, want)
	}
}

// TestReleaseDropsEveryReference: removing a query from the tracking list
// must not leave a released query reachable from the vacated tail of the
// backing array — its buffers are back in the pool by then.
func TestReleaseDropsEveryReference(t *testing.T) {
	eng, run := poolRig(t)
	qs := []*Query{run(), run(), run()}
	eng.Release(qs[1]) // middle: the old shift left a copy of qs[2] in the tail
	eng.Release(qs[2]) // last: the old reslice left qs[2] itself there
	if len(eng.queries) != 1 || eng.queries[0] != qs[0] {
		t.Fatalf("tracking list = %v, want only the unreleased query", eng.queries)
	}
	for i, q := range eng.queries[:cap(eng.queries)][1:] {
		if q != nil {
			t.Errorf("backing slot %d still holds a released query", i+1)
		}
	}
}

// TestReleaseIgnoresNilAndUnfinished: the guard also covers the trivially
// invalid calls — nil queries and queries still executing.
func TestReleaseIgnoresNilAndUnfinished(t *testing.T) {
	eng, _ := poolRig(t)
	eng.Release(nil) // must not panic
	q := eng.Submit(lower("noop", ScanAll("t", "v", "c")))
	if q.Done() {
		t.Fatal("query finished synchronously; rig broken")
	}
	before := poolDepth(&eng.pool)
	eng.Release(q)
	if q.released {
		t.Error("unfinished query marked released")
	}
	if got := poolDepth(&eng.pool); got != before {
		t.Errorf("releasing an unfinished query moved %d buffers", got-before)
	}
	if activeQueries(eng) != 1 {
		t.Errorf("unfinished query dropped from tracking: %d running, want 1", activeQueries(eng))
	}
}

// TestPoolRoundTripsDoNotAllocate: once a size class is warm, the
// get/put hot path for every pooled type stays off the Go heap.
func TestPoolRoundTripsDoNotAllocate(t *testing.T) {
	var p bufPool
	// Warm one buffer per exercised class.
	p.putI64(make([]int64, 0, 256))
	p.putF64(make([]float64, 0, 256))
	p.putMapIF(&i64fMap{})
	p.putMapII(&i64Map{})
	p.putDispatched(&dispatched{})

	cases := []struct {
		name string
		fn   func()
	}{
		{"i64", func() { p.putI64(p.getI64(200)) }},
		{"f64", func() { p.putF64(p.getF64(200)) }},
		{"map-if", func() { p.putMapIF(p.getMapIF()) }},
		{"map-ii", func() { p.putMapII(p.getMapII()) }},
		{"dispatched", func() { p.putDispatched(p.getDispatched()) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s round trip allocated %v times per run, want 0", tc.name, allocs)
		}
	}
}

// TestPoolWarmQueryStreamDoesNotGrowHeap: after one warm-up query, a
// run/Release stream reuses pooled candidate lists — the pool depth
// returns to its resting level after every release instead of growing.
func TestPoolWarmQueryStreamDoesNotGrowHeap(t *testing.T) {
	eng, run := poolRig(t)
	eng.Release(run()) // warm the pool
	resting := poolDepth(&eng.pool)
	if resting == 0 {
		t.Fatal("warm-up query pooled nothing")
	}
	for i := 0; i < 5; i++ {
		q := run()
		eng.Release(q)
		if got := poolDepth(&eng.pool); got != resting {
			t.Fatalf("iteration %d: pool depth %d, want resting %d", i, got, resting)
		}
	}
}

// TestPoolClassCapBoundsRetention: a size class never retains more than
// poolClassCap buffers; the overflow is left to the collector.
func TestPoolClassCapBoundsRetention(t *testing.T) {
	var p bufPool
	for i := 0; i < poolClassCap+10; i++ {
		p.putI64(make([]int64, 0, 64))
	}
	if got := len(p.i64[class(64)]); got != poolClassCap {
		t.Errorf("class retained %d buffers, want cap %d", got, poolClassCap)
	}
	// Zero-capacity buffers are never filed.
	p.putF64(nil)
	p.putF64(make([]float64, 0))
	for c, cl := range p.f64 {
		if len(cl) != 0 {
			t.Errorf("zero-cap put filed a buffer in class %d", c)
		}
	}
}

// TestReleaseDonatesEachBufferOnce: every binding a chunked stage fills
// owns each pooled buffer behind it exactly once. A plan through all of
// them is run and released twice over (the second run out of recycled
// storage); afterwards the pool is at rest — every buffer drawn is back,
// and no backing array sits in it under two entries, which would back two
// intermediates of a later query.
func TestReleaseDonatesEachBufferOnce(t *testing.T) {
	r := newSpecRigRows(t, 20000)
	plan := lower("every-chunked-kind",
		Scan("lineitem", "l_extendedprice", "cheap", PredFLess(300)),
		Refine("cheap", "lineitem", "l_discount", "c2", PredFRange(0.02, 0.08)),
		Project("c2", "lineitem", "l_orderkey", "k"),
		Project("c2", "lineitem", "l_extendedprice", "p"),
		Map2("p", "p", "sq", MapMul),
		Sum("sq", "total"),
		Build("k", "k", "seen"),
		ScanAll("lineitem", "l_orderkey", "all"),
		ProbeSemi("all", "lineitem", "l_orderkey", "seen", "hit"),
		ProbeAnti("all", "lineitem", "l_orderkey", "seen", "miss"),
		ProbeFetch("all", "lineitem", "l_orderkey", "seen", "got", "pay"),
		GroupSum("k", "sq", "parts"),
		GroupMerge("parts", "gk", "gs"),
	)
	for i := 0; i < 2; i++ {
		q := r.eng.Submit(plan)
		r.run(t, q)
		if q.Var("pay").Rows() == 0 || q.Var("gk").Rows() == 0 {
			t.Fatal("the plan produced nothing; rig broken")
		}
		r.eng.Release(q)
	}
	if poolDepth(&r.eng.pool) == 0 {
		t.Fatal("the released queries pooled nothing")
	}
	if err := poolAtRest(r.eng); err != nil {
		t.Error(err)
	}
}

// TestReleasedQueryWorkersStayDead: a PlacementOS query released the
// moment it completes — from the scheduler's bus, before its sixteen
// dataflow workers run again — hands its body to the next query while those
// workers are still alive. They hold the released handle, which reads done,
// so each exits as it wakes; none serves the next query from the recycled
// body. The next query must fork, run and answer exactly as on an engine
// whose first query was only drained, whose body is therefore never
// recycled: the same spawned thread count, the same threads running its
// tasks, the same result and the same simulated machine.
func TestReleasedQueryWorkersStayDead(t *testing.T) {
	type outcome struct {
		spawned uint64
		tids    []int64
		revenue float64
		tasks   uint64
		machine numa.Counters
	}
	run := func(release bool) outcome {
		r := newDBRig(t, 20000, PlacementOS)
		bus := obs.NewBus(0)
		r.sched.SetBus(bus)
		r.eng.SetBus(bus, "")
		first := r.eng.Submit(q6Plan())
		var next *Query
		bus.Subscribe(obs.KindRunSlice, func(obs.Event) {
			if next != nil || !first.Done() {
				return
			}
			if n := len(r.eng.exited); n == r.eng.cfg.Workers {
				t.Fatal("every worker exited before the release; the test misses the hazard")
			}
			if release {
				r.eng.Release(first)
			} else {
				r.eng.Drain()
			}
			next = r.eng.Submit(q6Plan())
			if release && len(r.eng.spare) != 0 {
				t.Fatal("the next query did not take the released body")
			}
		})
		seen := map[int64]bool{}
		bus.Subscribe(obs.KindTaskDone, func(e obs.Event) {
			if next != nil {
				seen[e.TID] = true
			}
		})
		if !r.sched.RunUntil(func() bool { return next != nil && next.Done() }, r.machine.Topology().SecondsToCycles(300)) {
			t.Fatal("the queries did not finish")
		}
		o := outcome{spawned: r.sched.Stats().Spawned, revenue: next.Scalar("revenue"), tasks: r.eng.TasksExecuted, machine: r.machine.Snapshot()}
		for tid := range seen {
			o.tids = append(o.tids, tid)
		}
		slices.Sort(o.tids)
		return o
	}
	recycled, fresh := run(true), run(false)
	if recycled.revenue == 0 || len(fresh.tids) == 0 {
		t.Fatal("the rig runs nothing")
	}
	if !reflect.DeepEqual(recycled, fresh) {
		t.Errorf("after a release before the workers exited: spawned %d, task threads %v, revenue %g, %d tasks; after a drain: spawned %d, task threads %v, revenue %g, %d tasks (or the machines differ)",
			recycled.spawned, recycled.tids, recycled.revenue, recycled.tasks, fresh.spawned, fresh.tids, fresh.revenue, fresh.tasks)
	}
}

// TestPoolAtRestAfterMixedStream runs a stream of differently shaped plans
// on one engine, up to three in flight, releasing each as it completes, so
// every body serves plans of other shapes in turn. Each query
// must answer as the same plan does alone on a fresh engine; afterwards the
// pool is at rest and every body is filed once.
func TestPoolAtRestAfterMixedStream(t *testing.T) {
	plans := []*Plan{
		q6Plan(),
		lower("scan-count", Scan("lineitem", "l_quantity", "c", PredFLess(24)), Count("c", "n")),
		lower("group",
			Scan("lineitem", "l_discount", "c", PredFRange(0.02, 0.08)),
			Project("c", "lineitem", "l_orderkey", "k"),
			Project("c", "lineitem", "l_extendedprice", "p"),
			GroupSum("k", "p", "parts"),
			GroupMerge("parts", "gk", "gs"),
			TopN("gk", "gs", 5)),
		lower("join",
			Scan("lineitem", "l_extendedprice", "cheap", PredFLess(300)),
			Project("cheap", "lineitem", "l_orderkey", "k"),
			Build("k", "k", "seen"),
			ScanAll("lineitem", "l_orderkey", "all"),
			ProbeFetch("all", "lineitem", "l_orderkey", "seen", "got", "pay"),
			Sum("pay", "total")),
	}
	type result struct {
		scalars map[string]float64
		ints    map[string][]int64
		floats  map[string][]float64
	}
	alone := make([]result, len(plans))
	for i, p := range plans {
		r := newSpecRigRows(t, 20000)
		q := r.eng.Submit(p)
		r.run(t, q)
		alone[i].scalars, alone[i].ints, alone[i].floats = Results(q)
	}

	r := newSpecRigRows(t, 20000)
	const stream, inFlight = 16, 3
	var live []*Query
	next := 0
	for next < stream || len(live) > 0 {
		for next < stream && len(live) < inFlight {
			live = append(live, r.eng.Submit(plans[next%len(plans)]))
			next++
		}
		if !r.sched.RunUntil(func() bool { return slices.ContainsFunc(live, (*Query).Done) }, r.machine.Topology().SecondsToCycles(300)) {
			t.Fatal("no query finished")
		}
		live = slices.DeleteFunc(live, func(q *Query) bool {
			if !q.Done() {
				return false
			}
			var got result
			got.scalars, got.ints, got.floats = Results(q)
			i := slices.Index(plans, q.Plan)
			if !reflect.DeepEqual(got, alone[i]) {
				t.Errorf("query %d (%s) in the stream: %+v, alone %+v", q.ID, q.Plan.Name, got, alone[i])
			}
			r.eng.Release(q)
			return true
		})
	}
	if err := poolAtRest(r.eng); err != nil {
		t.Error(err)
	}
	if n := len(r.eng.spare); n == 0 || n > inFlight {
		t.Errorf("%d bodies spare after a stream at most %d deep", n, inFlight)
	}
	for i, b := range r.eng.spare {
		if slices.Contains(r.eng.spare[:i], b) {
			t.Errorf("body %p is filed twice", b)
		}
	}
}

// TestPoolAtRestSeesRecycledLists: a list the recycler keeps is a view's
// tail for every query that replays it, so a pooled buffer inside one —
// which the next stage to draw it would write over — is a pool not at
// rest.
func TestPoolAtRestSeesRecycledLists(t *testing.T) {
	r := newDBRig(t, 20000, PlacementOS)
	for range 3 {
		q := r.eng.Submit(q6Plan())
		r.run(t, q)
		r.eng.Release(q)
	}
	if err := poolAtRest(r.eng); err != nil {
		t.Fatal(err)
	}
	lists := recycledLists(r.eng)
	if len(lists) == 0 {
		t.Fatal("three Q6 runs left no recycled list")
	}
	list := lists[len(lists)-1]
	inside := list[len(list)-2 : len(list)-1]
	r.eng.pool.i64[class(cap(inside))] = append(r.eng.pool.i64[class(cap(inside))], inside[:0])
	if err := poolAtRest(r.eng); err == nil || !strings.Contains(err.Error(), "recycled list") {
		t.Errorf("a pooled buffer inside a recycled list: poolAtRest said %v", err)
	}
}

// TestZeroConfigReadsTimebase: a zero ParseCycles is the machine's
// timebase front end, and the stage claim is its claim entry.
func TestZeroConfigReadsTimebase(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	eng, err := NewEngine(NewStore(machine), Config{Scheduler: sched.New(machine, sched.Config{}), PID: 9})
	if err != nil {
		t.Fatal(err)
	}
	tb := machine.Timebase()
	if eng.cfg.ParseCycles != int64(tb.FrontEnd) || eng.claimCycles != tb.Claim {
		t.Errorf("front end %d and claim %d, want the timebase's %d and %d",
			eng.cfg.ParseCycles, eng.claimCycles, tb.FrontEnd, tb.Claim)
	}
}
