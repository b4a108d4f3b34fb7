package db

import (
	"fmt"
	"math"
	"testing"

	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
)

// rig builds a machine + scheduler + store + engine with a small lineitem
// table whose values are deterministic.
type rig struct {
	machine *numa.Machine
	sched   *sched.Scheduler
	store   *Store
	eng     *Engine
	rows    int
}

func newDBRig(t *testing.T, rows int, placement Placement) *rig {
	t.Helper()
	m := numa.NewMachine(numa.Opteron8387())
	// A small quantum gives sub-query time resolution for latency checks.
	sc := sched.New(m, sched.Config{Quantum: m.Topology().SecondsToCycles(50e-6)})
	st := NewStore(m)

	shipdate := make([]int64, rows)
	quantity := make([]float64, rows)
	discount := make([]float64, rows)
	price := make([]float64, rows)
	orderkey := make([]int64, rows)
	for i := 0; i < rows; i++ {
		d := i % 730 // two years of dates as yyyymmdd integers
		year := 1996 + d/365
		day := d % 365
		shipdate[i] = int64(year*10000 + (day/31+1)*100 + day%31 + 1)
		quantity[i] = float64(i % 50)
		discount[i] = float64(i%11) / 100.0
		price[i] = 100 + float64(i%900)
		orderkey[i] = int64(i / 4)
	}
	if _, err := st.CreateTable("lineitem", map[string]*BAT{
		"l_shipdate":      NewI64("l_shipdate", shipdate),
		"l_quantity":      NewF64("l_quantity", quantity),
		"l_discount":      NewF64("l_discount", discount),
		"l_extendedprice": NewF64("l_extendedprice", price),
		"l_orderkey":      NewI64("l_orderkey", orderkey),
	}); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(st, Config{Scheduler: sc, PID: 100, Placement: placement, MinPartRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{machine: m, sched: sc, store: st, eng: eng, rows: rows}
}

// run ticks the scheduler until the queries finish or the test times out.
func (r *rig) run(t *testing.T, qs ...*Query) {
	t.Helper()
	allDone := func() bool {
		for _, q := range qs {
			if !q.Done() {
				return false
			}
		}
		return true
	}
	if !r.sched.RunUntil(allDone, r.machine.Topology().SecondsToCycles(300)) {
		t.Fatal("queries did not finish within the simulated time limit")
	}
}

// q6Spec is the paper's Q6 (Figure 3 MAL listing) over the rig's synthetic
// lineitem; q6Plan lowers it unchecked.
func q6Spec() PlanSpec {
	return spec("Q6",
		Scan("lineitem", "l_quantity", "X_1", PredFLess(24)),
		Refine("X_1", "lineitem", "l_shipdate", "X_2", PredIRange(19970101, 19980101)),
		Refine("X_2", "lineitem", "l_discount", "X_3", PredFRange(0.06, 0.08)),
		Project("X_3", "lineitem", "l_extendedprice", "X_4"),
		Project("X_3", "lineitem", "l_discount", "X_5"),
		Map2("X_4", "X_5", "X_6", MapMul),
		Sum("X_6", "revenue"),
	)
}

func q6Plan() *Plan { return q6Spec().Lower() }

// q6Reference computes Q6's answer directly from the base columns.
func q6Reference(st *Store) float64 {
	li := st.Table("lineitem")
	sd, qty := li.Col("l_shipdate").I, li.Col("l_quantity").F
	dis, pr := li.Col("l_discount").F, li.Col("l_extendedprice").F
	var rev float64
	for i := 0; i < li.Rows; i++ {
		if sd[i] >= 19970101 && sd[i] < 19980101 && dis[i] >= 0.06 && dis[i] <= 0.08 && qty[i] < 24 {
			rev += pr[i] * dis[i]
		}
	}
	return rev
}

func TestQ6MatchesReference(t *testing.T) {
	r := newDBRig(t, 20000, PlacementOS)
	q := r.eng.Submit(q6Plan())
	r.run(t, q)
	want := q6Reference(r.store)
	got := q.Scalar("revenue")
	if want == 0 {
		t.Fatal("reference revenue is zero; synthetic data broken")
	}
	if math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Errorf("revenue = %g, want %g", got, want)
	}
}

func TestQ6DeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		r := newDBRig(t, 8000, PlacementOS)
		q := r.eng.Submit(q6Plan())
		r.run(t, q)
		return q.Scalar("revenue")
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic results: %g vs %g", a, b)
	}
}

func TestConcurrentQueriesAllFinish(t *testing.T) {
	r := newDBRig(t, 8000, PlacementOS)
	var qs []*Query
	for i := 0; i < 8; i++ {
		qs = append(qs, r.eng.Submit(q6Plan()))
	}
	r.run(t, qs...)
	want := q6Reference(r.store)
	for i, q := range qs {
		if got := q.Scalar("revenue"); math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Errorf("query %d revenue = %g, want %g", i, got, want)
		}
	}
	if r.eng.TasksExecuted == 0 {
		t.Error("no tasks accounted")
	}
	done := r.eng.Drain()
	if len(done) != 8 || activeQueries(r.eng) != 0 {
		t.Errorf("Drain returned %d, active %d", len(done), activeQueries(r.eng))
	}
}

func TestQueryElapsedAndEvents(t *testing.T) {
	r := newDBRig(t, 8000, PlacementOS)
	var events []obs.Event
	bus := obs.NewBus(0)
	r.eng.SetBus(bus, "")
	bus.Subscribe(obs.KindTaskDone, func(e obs.Event) { events = append(events, e) })
	q := r.eng.Submit(q6Plan())
	r.run(t, q)
	if q.ElapsedCycles() == 0 {
		t.Error("finished query reports zero latency")
	}
	if len(events) == 0 {
		t.Fatal("no task events")
	}
	seenOps := map[string]bool{}
	for _, e := range events {
		if e.Now < e.Start {
			t.Error("event ends before it starts")
		}
		seenOps[e.Label] = true
	}
	for _, op := range []string{"algebra.thetasubselect", "algebra.subselect", "algebra.projection", "batcalc.*", "aggr.sum"} {
		if !seenOps[op] {
			t.Errorf("operator %s never traced", op)
		}
	}
}

func TestScanChargesHardwareCounters(t *testing.T) {
	r := newDBRig(t, 20000, PlacementOS)
	q := r.eng.Submit(q6Plan())
	r.run(t, q)
	snap := r.machine.Snapshot()
	if snap.TotalL3Misses() == 0 {
		t.Error("cold scans produced no L3 misses")
	}
	if snap.TotalMinorFaults() == 0 {
		t.Error("first touches produced no minor faults")
	}
	if snap.TotalIMCBytes() == 0 {
		t.Error("no memory traffic accounted")
	}
}

func TestNUMAAwareWorkersArePinned(t *testing.T) {
	r := newDBRig(t, 4000, PlacementNUMAAware)
	for _, w := range r.eng.workers {
		if w.thread.Pinned().IsEmpty() {
			t.Fatal("NUMA-aware worker not pinned")
		}
		if w.thread.Pinned().Count() != 1 {
			t.Errorf("worker pinned to %d cores, want 1", w.thread.Pinned().Count())
		}
	}
	q := r.eng.Submit(q6Plan())
	r.run(t, q)
	want := q6Reference(r.store)
	if got := q.Scalar("revenue"); math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Errorf("NUMA-aware revenue = %g, want %g", got, want)
	}
}

func TestNUMAAwarePinningHolds(t *testing.T) {
	// The pinned pool must never migrate across nodes, however busy the
	// machine gets; the OS-managed engine's threads may and do migrate.
	r := newDBRig(t, 40000, PlacementNUMAAware)
	topo := r.machine.Topology()
	workerTIDs := map[sched.TID]bool{}
	for _, w := range r.eng.workers {
		workerTIDs[w.thread.ID] = true
	}
	bus := obs.NewBus(0)
	r.sched.SetBus(bus)
	bus.Subscribe(obs.KindMigration, func(e obs.Event) {
		if workerTIDs[sched.TID(e.TID)] && topo.NodeOf(numa.CoreID(e.From)) != topo.NodeOf(numa.CoreID(e.Core)) {
			t.Errorf("pinned worker %d migrated %d -> %d", e.TID, e.From, e.Core)
		}
	})
	var qs []*Query
	for i := 0; i < 4; i++ {
		qs = append(qs, r.eng.Submit(q6Plan()))
	}
	r.run(t, qs...)
	want := q6Reference(r.store)
	for _, q := range qs {
		if got := q.Scalar("revenue"); math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Errorf("revenue = %g, want %g", got, want)
		}
	}
}

func TestNUMAAwareDispatchPrefersDataNode(t *testing.T) {
	// After a warm-up query homes the base columns, a second query's scan
	// tasks must carry the home node as their dispatch preference.
	r := newDBRig(t, 40000, PlacementNUMAAware)
	q1 := r.eng.Submit(q6Plan())
	r.run(t, q1)
	// Build the same first-stage tasks by hand and check their hints.
	li := r.store.Table("lineitem")
	c := li.Col("l_quantity")
	topo := r.machine.Topology()
	hinted := 0
	ranges := partitionRanges(nil, li.Rows, 16, 256)
	for _, rng := range ranges {
		tk := testTask(r.machine, funcKernel{}, rng[0], rng[1], cyclesScan, c)
		if tk.PreferredNode() != numa.NoNode {
			hinted++
			if got := c.HomeOfRow(r.machine.Memory(), topo.BlockBytes, rng[0]); got != tk.PreferredNode() {
				t.Errorf("task pref %d != home %d", tk.PreferredNode(), got)
			}
		}
	}
	if hinted == 0 {
		t.Error("no scan task carried a dispatch hint after warm-up")
	}
}

func TestRawQ6MatchesReference(t *testing.T) {
	r := newDBRig(t, 20000, PlacementOS)
	for _, aff := range []RawAffinity{RawOS, RawDense, RawSparse} {
		k, err := SpawnRawQ6(r.store, r.sched, 200+int(aff), 8, aff)
		if err != nil {
			t.Fatal(err)
		}
		if !r.sched.RunUntil(k.Done, r.machine.Topology().SecondsToCycles(120)) {
			t.Fatalf("raw kernel (%v) did not finish", aff)
		}
		want := q6Reference(r.store)
		if math.Abs(k.Revenue-want) > 1e-6*math.Abs(want) {
			t.Errorf("raw %v revenue = %g, want %g", aff, k.Revenue, want)
		}
	}
}

func TestRawAffinityPinsThreads(t *testing.T) {
	r := newDBRig(t, 4000, PlacementOS)
	topo := r.machine.Topology()
	var migrated bool
	bus := obs.NewBus(0)
	r.sched.SetBus(bus)
	bus.Subscribe(obs.KindMigration, func(e obs.Event) {
		if topo.NodeOf(numa.CoreID(e.From)) != topo.NodeOf(numa.CoreID(e.Core)) {
			migrated = true
		}
	})
	k, err := SpawnRawQ6(r.store, r.sched, 300, 4, RawDense)
	if err != nil {
		t.Fatal(err)
	}
	r.sched.RunUntil(k.Done, topo.SecondsToCycles(120))
	if migrated {
		t.Error("dense-pinned raw threads migrated across nodes")
	}
}

func TestEngineConfigValidation(t *testing.T) {
	m := numa.NewMachine(numa.Opteron8387())
	st := NewStore(m)
	if _, err := NewEngine(st, Config{PID: 1}); err == nil {
		t.Error("missing scheduler accepted")
	}
	sc := sched.New(m, sched.Config{})
	if _, err := NewEngine(st, Config{Scheduler: sc}); err == nil {
		t.Error("missing PID accepted")
	}
}

// TestQueryForkRecyclesWorkers runs a stream of queries through one
// PlacementOS engine under a lit scheduler. From the second query on, the
// fork reinitialises the records of the previous query's exited workers —
// no new worker or thread record — yet the model sees a fresh fork: TIDs
// continue from the scheduler's counter in worker order, Stats.Spawned
// counts every thread, and every run slice of a dataflow thread carries
// the q<ID>-w<i> label of its query and worker.
func TestQueryForkRecyclesWorkers(t *testing.T) {
	const workers, queries = 4, 12
	r := newDBRig(t, 8000, PlacementOS)
	eng, err := NewEngine(r.store, Config{Scheduler: r.sched, PID: 101, Workers: workers, MinPartRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus(0)
	r.sched.SetBus(bus)
	type slice struct {
		tid   sched.TID
		label string
	}
	var slices []slice
	bus.Subscribe(obs.KindRunSlice, func(e obs.Event) { slices = append(slices, slice{sched.TID(e.TID), e.Label}) })
	base := r.sched.Stats().Spawned // the two server threads; TIDs start at 1
	firstTID := sched.TID(base + 1)

	records := map[*sched.Thread]bool{}
	want := q6Reference(r.store)
	for k := 1; k <= queries; k++ {
		q := eng.Submit(q6Plan())
		r.run(t, q)
		if got := q.Scalar("revenue"); math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Fatalf("query %d revenue = %g, want %g", k, got, want)
		}
		eng.Release(q)
		// A worker files its record on exited as its thread exits.
		if !r.sched.RunUntil(func() bool { return len(eng.exited) == workers }, r.machine.Topology().SecondsToCycles(1)) {
			t.Fatalf("query %d: its workers never exited (%d exited records, want %d)", k, len(eng.exited), workers)
		}
		for _, w := range eng.exited {
			if w.query != nil || w.thread.State() != sched.Done {
				t.Fatalf("query %d: an exited record still holds its query or a live thread", k)
			}
			if tid := firstTID + sched.TID((k-1)*workers+w.id); w.thread.ID != tid {
				t.Fatalf("query %d worker %d ran as TID %d, want %d", k, w.id, w.thread.ID, tid)
			}
			records[w.thread] = true
		}
		if got, want := r.sched.Stats().Spawned, base+uint64(k*workers); got != want {
			t.Fatalf("after query %d: Stats.Spawned = %d, want %d", k, got, want)
		}
	}
	if len(records) != workers {
		t.Errorf("%d queries used %d thread records, want %d", queries, len(records), workers)
	}
	recycled := 0
	for _, s := range slices {
		if s.tid < firstTID {
			continue // a server thread
		}
		i := int(s.tid - firstTID)
		if want := fmt.Sprintf("q%d-w%d", i/workers+1, i%workers); s.label != want {
			t.Fatalf("TID %d ran a slice labelled %q, want %q", s.tid, s.label, want)
		}
		if i >= workers {
			recycled++
		}
	}
	if recycled == 0 {
		t.Fatal("no recycled worker ran a slice")
	}
}
