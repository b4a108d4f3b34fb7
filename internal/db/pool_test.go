package db

import (
	"testing"

	"elasticore/internal/numa"
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
// hand one backing array to two later queries simultaneously.
func TestReleaseIsIdempotent(t *testing.T) {
	eng, run := poolRig(t)
	q := run()
	if q.vars["c"] != nil {
		t.Fatal("the count's input outlived the count")
	}
	eng.Release(q)
	after := poolDepth(&eng.pool)
	if after == 0 {
		t.Fatal("first Release returned nothing to the pool")
	}
	eng.Release(q)
	if got := poolDepth(&eng.pool); got != after {
		t.Fatalf("second Release changed pool depth %d -> %d; buffers double-donated", after, got)
	}
	if !q.released {
		t.Error("released flag not set")
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
	if err := poolAtRest(&r.eng.pool); err != nil {
		t.Error(err)
	}
}
