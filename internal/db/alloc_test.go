package db

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
)

// alloc_test.go pins the zero-allocation execution hot path: steady-state
// operator task steps must not touch the Go heap, and the query buffer
// pool must actually recycle storage across queries.

// TestChunkTaskStepSteadyStateZeroAlloc steps a scan task through a warm
// machine and requires allocation-free progress: the bulk AccessRange
// charge, the arena-backed caches and the placement layer all run without
// heap traffic once warm.
func TestChunkTaskStepSteadyStateZeroAlloc(t *testing.T) {
	topo := numa.Opteron8387()
	machine := numa.NewMachine(topo)
	vals := make([]float64, 1<<22)
	col := NewF64("col", vals)
	col.ensureRegion(machine.Memory(), topo.BlockBytes)
	ctx := &sched.ExecContext{Machine: machine, Core: 0, PID: 1, TID: 1}

	matched := 0
	task := testTask(machine, funcKernel{process: func(a, b int) {
		for i := a; i < b; i++ {
			if vals[i] >= 0 {
				matched++
			}
		}
	}}, 0, len(vals), cyclesScan, col)
	// Warm the caches, the placement table and the machine's cost memo.
	if _, done := task.Step(ctx, 1<<20); done {
		t.Fatal("task finished during warm-up; grow the input")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, done := task.Step(ctx, 1<<14); done {
			t.Fatal("task finished mid-measurement; grow the input")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state task step allocated %v times per run, want 0", allocs)
	}
}

// TestBufferPoolRecyclesBackingArrays checks the get/own/release cycle
// returns previously used storage instead of allocating anew.
func TestBufferPoolRecyclesBackingArrays(t *testing.T) {
	var p bufPool
	a := p.getI64(100)
	a = append(a, 1, 2, 3)
	p.putI64(a)
	b := p.getI64(64) // within the bucket's guaranteed minimum
	if cap(b) != cap(a) || &a[:1][0] != &b[:1][0] {
		t.Error("getI64 did not recycle the returned buffer")
	}
	if len(b) != 0 {
		t.Errorf("recycled buffer has len %d, want 0", len(b))
	}

	f := p.getF64(64)
	p.putF64(f)
	if small := p.getF64(4); cap(small) == cap(f) {
		t.Error("getF64(4) was handed a buffer sixteen times its size")
	}
	g := p.getF64(16) // within poolReach of the 64-cap bucket
	if cap(g) != cap(f) || &f[:1][0] != &g[:1][0] {
		t.Error("getF64 did not recycle the returned buffer")
	}

	m := p.getMapIF()
	m.Add(7, 1.5)
	p.putMapIF(m)
	m2 := p.getMapIF()
	if m2 != m {
		t.Error("getMapIF did not recycle the returned table")
	}
	if m2.Len() != 0 {
		t.Errorf("recycled table has %d stale entries", m2.Len())
	}
	if _, ok := m2.Get(7); ok {
		t.Error("recycled table still resolves a stale key")
	}
}

// TestPoolClassKeepsCapacityPromise: a buffer too small for a request must
// not be handed out even when its size class matches.
func TestPoolClassKeepsCapacityPromise(t *testing.T) {
	var p bufPool
	p.putI64(make([]int64, 0, 520)) // class 10 holds caps 512..1023
	got := p.getI64(900)            // same class, larger need
	if cap(got) < 900 {
		t.Fatalf("getI64(900) returned cap %d", cap(got))
	}
}

// TestPoolClassTopFits: for any mix of returned capacities and requests, a
// lookup hands out a buffer that fits, and the most recently returned one
// of the request's bucket — the first whose every capacity is at least the
// request — when that bucket holds one.
func TestPoolClassTopFits(t *testing.T) {
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		var p bufPool
		var lent [][]int64
		for range 4000 {
			switch r.intn(3) {
			case 0: // an earlier query's buffer comes back, of any size
				p.putI64(make([]int64, 0, 1+r.intn(5000)))
			case 1:
				if len(lent) > 0 {
					p.putI64(lent[len(lent)-1])
					lent = lent[:len(lent)-1]
				}
			default:
				need := 1 + r.intn(5000)
				c := 1
				for 1<<(c-1) < need {
					c++
				}
				var top *int64
				if b := p.i64[c]; len(b) > 0 {
					top = unsafe.SliceData(b[len(b)-1])
				}
				got := p.getI64(need)
				if cap(got) < need || len(got) != 0 {
					t.Fatalf("seed %d: getI64(%d) returned len %d cap %d", seed, need, len(got), cap(got))
				}
				if top != nil && unsafe.SliceData(got) != top {
					t.Fatalf("seed %d: getI64(%d) passed over the top of bucket %d", seed, need, c)
				}
				lent = append(lent, got)
			}
		}
	}
}

// TestReleaseReclaimsQueryBuffers runs a real query twice on one engine
// and verifies the second run draws its candidate lists from the pool
// rather than allocating fresh ones, while Drain leaves results readable.
func TestReleaseReclaimsQueryBuffers(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	sc := sched.New(machine, sched.Config{})
	store := NewStore(machine)
	vals := make([]float64, 8192)
	want := 0.0
	for i := range vals {
		vals[i] = float64(i % 50)
		if vals[i] < 25 {
			want++
		}
	}
	if _, err := store.CreateTable("t", map[string]*BAT{"v": NewF64("v", vals)}); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(store, Config{Scheduler: sc, PID: 7, ParseCycles: -1})
	if err != nil {
		t.Fatal(err)
	}
	// The candidate list is the plan's result: no later step reads it.
	plan := lower("scan", Scan("t", "v", "c", PredFLess(25)))
	runOnce := func() *Query {
		q := eng.Submit(plan)
		if !sc.RunUntil(q.Done, machine.Topology().SecondsToCycles(10)) {
			t.Fatal("query did not finish")
		}
		return q
	}
	q1 := runOnce()
	if eng.pool.lent == 0 {
		t.Fatal("query holds no pooled buffers")
	}
	// Drain must NOT recycle: results of drained queries stay readable.
	if drained := eng.Drain(); len(drained) != 1 || drained[0] != q1 {
		t.Fatal("Drain did not return the finished query")
	}
	if got := float64(q1.Var("c").Rows()); got != want {
		t.Fatalf("drained query result corrupted: %v rows, want %v", got, want)
	}
	eng.Release(q1)
	pooled := 0
	for _, cl := range eng.pool.i64 {
		pooled += len(cl)
	}
	if pooled == 0 || eng.pool.lent != 0 {
		t.Fatalf("release returned %d buffers to the pool and left %d out", pooled, eng.pool.lent)
	}
	q2 := runOnce()
	if got := float64(q2.Var("c").Rows()); got != want {
		t.Fatalf("pooled rerun returned %v rows, want %v", got, want)
	}
	eng.Release(q2)
	if got := poolDepth(&eng.pool) - len(eng.pool.disp); got != pooled {
		t.Errorf("the rerun left %d buffers in the pool, want the %d the first run returned", got, pooled)
	}
}

// TestQ6AllocsPerQuery is db.q6_allocs_per_query inside the root module:
// building, submitting, running and releasing Q6 on a warm engine at the
// default fan-out (16 partitions a stage, 112 tasks) stays within an object
// budget that neither the per-task objects of before the slab (nine a task,
// over a thousand a query) nor the fork of before recycling (116 objects:
// a worker, a thread record and a formatted name for each of the sixteen
// dataflow threads PlacementOS forks) nor a body per query (four maps, a
// slab and three header objects a stage: over 40) nor a pool that lets
// too-small buffers hide a fitting one (a fresh value buffer a query) can
// meet. What remains is per query: the spec and its plan, which the caller
// builds, and the handle Submit returns; the rest is the machine's cache
// arenas, which one warm-up run has not grown to their size.
func TestQ6AllocsPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	r := newDBRig(t, 20000, PlacementOS)
	want := q6Reference(r.store)
	run := func() {
		q := r.eng.Submit(q6Plan())
		r.run(t, q)
		if got := q.Scalar("revenue"); math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Fatalf("revenue = %g, want %g", got, want)
		}
		r.eng.Release(q)
	}
	run() // warm the buffer pool
	if got := testing.AllocsPerRun(20, run); got > 5 {
		t.Errorf("a warm Q6 allocated %v objects from plan to release, want at most 5", got)
	} else {
		t.Logf("a warm Q6: %v objects", got)
	}
}

// TestStagePlanningAllocsIndependentOfFanout is the property behind "a
// stage allocates nothing": on a warm body — one that served the same
// steps for an earlier query and was recycled — planning a chunked stage
// allocates no object at 4 partitions and none at 16. Its slab, its output
// headers and their lists come from the body, the partition ranges from the
// body's buffer, and the buffers and tables a stage draws per partition
// (what the stage holds, not what planning it costs) from the stocked pool.
func TestStagePlanningAllocsIndependentOfFanout(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rows = 1 << 15
	stages := []struct {
		name   string
		inputs []OpSpec // planned and run first, to bind what the stage reads
		stage  OpSpec
	}{
		{"Scan", nil, Scan("lineitem", "l_quantity", "c", PredFLess(24))},
		{"ScanAll", nil, ScanAll("lineitem", "l_quantity", "c")},
		{"Refine", []OpSpec{ScanAll("lineitem", "l_quantity", "c")},
			Refine("c", "lineitem", "l_discount", "c2", PredFRange(0.02, 0.08))},
		{"Project", []OpSpec{Scan("lineitem", "l_quantity", "c", PredFLess(24))},
			Project("c", "lineitem", "l_extendedprice", "p")},
		{"Map2", []OpSpec{ScanAll("lineitem", "l_quantity", "c"), Project("c", "lineitem", "l_extendedprice", "p")},
			Map2("p", "p", "sq", MapMul)},
		{"Sum", []OpSpec{ScanAll("lineitem", "l_quantity", "c"), Project("c", "lineitem", "l_extendedprice", "p")},
			Sum("p", "total")},
		{"ProbeSemi", []OpSpec{ScanAll("lineitem", "l_orderkey", "c"), Project("c", "lineitem", "l_orderkey", "k"), Build("k", "", "set")},
			ProbeSemi("c", "lineitem", "l_orderkey", "set", "hit")},
		{"ProbeAnti", []OpSpec{ScanAll("lineitem", "l_orderkey", "c"), Project("c", "lineitem", "l_orderkey", "k"), Build("k", "", "set")},
			ProbeAnti("c", "lineitem", "l_orderkey", "set", "miss")},
		{"ProbeFetch", []OpSpec{ScanAll("lineitem", "l_orderkey", "c"), Project("c", "lineitem", "l_orderkey", "k"), Build("k", "k", "set")},
			ProbeFetch("c", "lineitem", "l_orderkey", "set", "hit", "pay")},
		{"GroupSum", []OpSpec{ScanAll("lineitem", "l_orderkey", "c"), Project("c", "lineitem", "l_orderkey", "k"), Project("c", "lineitem", "l_extendedprice", "p")},
			GroupSum("k", "p", "parts")},
	}
	for _, tc := range stages {
		for _, fanout := range []int{4, 16} {
			r := newDBRig(t, rows, PlacementOS)
			eng, err := NewEngine(r.store, Config{Scheduler: r.sched, PID: 101, Fanout: fanout, MinPartRows: 64, ParseCycles: -1})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2*16*4; i++ {
				// A partition's size: within reach of every request a
				// stage at this fan-out makes (poolReach).
				eng.pool.putI64(make([]int64, 0, rows/fanout))
				eng.pool.putF64(make([]float64, 0, rows/fanout))
				m := &i64fMap{}
				m.tryPositional(0, rows, rows, false) // l_orderkey spans 0 … rows/4
				eng.pool.putMapIF(m)
			}
			ctx := &sched.ExecContext{Machine: r.machine, PID: 101}
			runAll := func(tasks []Task) {
				for _, tk := range tasks {
					for done := false; !done; {
						_, done = tk.Step(ctx, 1<<40)
					}
				}
			}
			// The first query warms the body; the rest are measured.
			const runs = 10
			var before, after runtime.MemStats
			var allocs uint64
			for run := 0; run <= runs; run++ {
				q := planningQuery(eng)
				for i := range tc.inputs {
					runAll(planOp(q, &tc.inputs[i]))
				}
				runtime.ReadMemStats(&before)
				tasks := planOp(q, &tc.stage)
				runtime.ReadMemStats(&after)
				if run > 0 {
					allocs += after.Mallocs - before.Mallocs
				}
				if len(tasks) != fanout {
					t.Fatalf("%s at fanout %d planned %d tasks", tc.name, fanout, len(tasks))
				}
				runAll(tasks)
				releaseByHand(eng, q)
			}
			if allocs != 0 {
				t.Errorf("planning %s at fanout %d on a warm body allocated %d objects in %d runs, want none", tc.name, fanout, allocs, runs)
			}
		}
	}
}

// releaseByHand is Release for a query planned by hand: every binding's
// storage goes back to the pool and the body is recycled.
func releaseByHand(e *Engine, q *Query) {
	for name, ps := range q.vars {
		q.free(&e.pool, held{name: name, vals: ps})
	}
	for name, set := range q.sets {
		q.free(&e.pool, held{name: name, set: set})
	}
	for name, parts := range q.partials {
		q.free(&e.pool, held{name: name, parts: parts})
	}
	e.recycle(q)
}

// TestQueryForkAllocsIndependentOfWorkers: the per-query fork is the model,
// not a host cost. On a warm PlacementOS engine, submitting Q6, running it
// to completion and releasing it allocates the same number of objects with
// 4 dataflow threads a query as with 16, and no more than 3: every fork
// after the first reinitialises exited worker and thread records, a dark
// scheduler makes no thread labels, and the query runs in a recycled body.
// The fan-out is fixed, so only the fork varies.
func TestQueryForkAllocsIndependentOfWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	four, sixteen := warmQ6Allocs(t, 4, nil), warmQ6Allocs(t, 16, nil)
	if four != sixteen || sixteen > 3 {
		t.Errorf("a warm Q6 allocated %v objects with 4 workers and %v with 16, want the same and at most 3", four, sixteen)
	} else {
		t.Logf("a warm Q6: %v objects at 4 and at 16 workers", four)
	}
}

// TestLitQueryForkAllocsOneLabelString is the lit twin of
// TestQueryForkAllocsIndependentOfWorkers: under a scheduler that publishes
// onto a bus, a warm Q6's fork labels its threads q<ID>-w<i> from one
// string made per query, so it allocates at most one object more than the
// dark fork, at 4 workers and at 16.
func TestLitQueryForkAllocsOneLabelString(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	for _, workers := range []int{4, 16} {
		dark, lit := warmQ6Allocs(t, workers, nil), warmQ6Allocs(t, workers, obs.NewBus(0))
		if lit > dark+1 {
			t.Errorf("at %d workers a warm lit Q6 allocated %v objects, the dark one %v: want at most one more", workers, lit, dark)
		} else {
			t.Logf("at %d workers a warm Q6: %v objects dark, %v lit", workers, dark, lit)
		}
	}
}

// warmQ6Allocs returns the objects a warm Q6 allocates from submit to
// release on a PlacementOS engine forking the given number of workers a
// query, its scheduler publishing onto bus (nil leaves it dark).
func warmQ6Allocs(t *testing.T, workers int, bus *obs.Bus) float64 {
	r := newDBRig(t, 20000, PlacementOS)
	eng, err := NewEngine(r.store, Config{Scheduler: r.sched, PID: 101, Workers: workers, Fanout: 16, MinPartRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	if bus != nil {
		r.sched.SetBus(bus)
	}
	run := func() {
		q := eng.Submit(q6Plan())
		r.run(t, q)
		eng.Release(q)
	}
	// Warm the buffer pool, the exited list and the machine's cache
	// arenas, which grow with the blocks a run touches, not the fork.
	for k := 0; k < 20; k++ {
		run()
	}
	return testing.AllocsPerRun(20, run)
}
