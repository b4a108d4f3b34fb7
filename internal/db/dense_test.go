package db

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// dense_test.go pins what the tail-less candidate form, the reserved hash
// tables and the blind-write kernels must leave unchanged: query results,
// every simulated access, and the host allocations they exist to avoid.

// refPred is the reference lowering of a predicate over a column of the
// given kind: PredAll is restated as an always-true range, so a full scan
// materializes the identity vector through the ordinary selection path
// instead of answering with a dense range, and everything downstream reads
// a materialized candidate list. Every other form is left as it is — what
// each means per row is diff_test.go's business, whose references are
// independent funcs.
func refPred(p Pred, kind Kind) Pred {
	switch {
	case p.form != predAll:
		return p
	case kind == KindF64:
		return PredFRange(math.Inf(-1), math.Inf(1))
	}
	return PredIRange(math.MinInt64, math.MaxInt64) // no test column holds MaxInt64
}

// refSpec is the reference lowering of a declarative plan that compiles
// against st: refPred over every step. The differentials below execute a
// plan and its reference lowering side by side.
func refSpec(spec PlanSpec, st *Store) PlanSpec {
	spec.Ops = append([]OpSpec(nil), spec.Ops...)
	for i := range spec.Ops {
		if op := &spec.Ops[i]; op.Kind == OpScan || op.Kind == OpRefine {
			op.Pred = refPred(op.Pred, st.Table(op.Table).Col(op.Col).Kind)
		}
	}
	return spec
}

// bothWays returns the two builds runPlanBothWays takes: spec as it is and
// its reference lowering, both lowered unchecked (a dense candidate list
// read as a value vector is legal to the engine and not to Compile).
func bothWays(spec PlanSpec) (build, buildRef func(st *Store) (*Plan, error)) {
	return func(*Store) (*Plan, error) { return spec.Lower(), nil },
		func(st *Store) (*Plan, error) { return refSpec(spec, st).Lower(), nil }
}

// runPlanBothWays executes the plan and its reference lowering on two
// identical rigs and returns both finished queries and machines.
func runPlanBothWays(t *testing.T, rows int, build, buildRef func(st *Store) (*Plan, error)) (fast, ref *Query, fastM, refM *numa.Machine) {
	t.Helper()
	run := func(build func(st *Store) (*Plan, error)) (*Query, *numa.Machine) {
		r := newSpecRigRows(t, rows)
		eng, err := NewEngine(r.store, Config{Scheduler: r.sched, PID: 101, MinPartRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := build(r.store)
		if err != nil {
			t.Fatal(err)
		}
		q := eng.Submit(plan)
		r.run(t, q)
		return q, r.machine
	}
	fast, fastM = run(build)
	ref, refM = run(buildRef)
	return fast, ref, fastM, refM
}

// sameOutcome asserts two executions of one plan agree on every scalar,
// every variable's values and row counts, the query latency and every
// counter of the simulated machine.
func sameOutcome(t *testing.T, fast, ref *Query, fastM, refM *numa.Machine) {
	t.Helper()
	if !reflect.DeepEqual(fast.scalars, ref.scalars) {
		t.Errorf("scalars differ: fast %v, reference %v", fast.scalars, ref.scalars)
	}
	if len(fast.vars) != len(ref.vars) {
		t.Fatalf("fast bound %d variables, reference %d", len(fast.vars), len(ref.vars))
	}
	for name, ps := range fast.vars {
		want := ref.vars[name]
		if want == nil {
			t.Fatalf("variable %s missing from the reference", name)
		}
		if !reflect.DeepEqual(ps.FlattenI64(), want.FlattenI64()) || !reflect.DeepEqual(ps.FlattenF64(), want.FlattenF64()) {
			t.Errorf("variable %s differs between fast and reference", name)
		}
		for i, frag := range ps.Parts {
			if frag.Len() != want.Parts[i].Len() {
				t.Errorf("variable %s fragment %d: %d rows, reference %d", name, i, frag.Len(), want.Parts[i].Len())
			}
		}
	}
	if fast.ElapsedCycles() != ref.ElapsedCycles() {
		t.Errorf("latency %d cycles, reference %d", fast.ElapsedCycles(), ref.ElapsedCycles())
	}
	if !reflect.DeepEqual(fastM.Snapshot(), refM.Snapshot()) {
		t.Error("numa counters differ between fast and reference")
	}
}

// TestScanAllPlansMatchNaive runs plans that start from a full-table
// candidate list through every consumer of one — projection of both
// kinds, the three probes, refinement under every predicate form, count,
// and use as join and group keys — against their reference lowering
// (materialized identity vectors).
func TestScanAllPlansMatchNaive(t *testing.T) {
	plans := map[string][]OpSpec{
		"project+sum": {
			ScanAll("lineitem", "l_orderkey", "all"),
			Project("all", "lineitem", "l_extendedprice", "p"),
			Project("all", "lineitem", "l_discount", "d"),
			Project("all", "lineitem", "l_orderkey", "ok"),
			Map2("p", "d", "rev", MapMul),
			Sum("rev", "result"),
			Count("all", "rows"),
		},
		"probes": {
			Scan("lineitem", "l_extendedprice", "cheap", PredFLess(300)),
			Project("cheap", "lineitem", "l_orderkey", "keys"),
			Project("cheap", "lineitem", "l_shipdate", "dates"),
			Build("keys", "dates", "seen"),
			ScanAll("lineitem", "l_orderkey", "all"),
			ProbeSemi("all", "lineitem", "l_orderkey", "seen", "hit"),
			ProbeAnti("all", "lineitem", "l_orderkey", "seen", "miss"),
			ProbeFetch("all", "lineitem", "l_orderkey", "seen", "got", "when"),
			Count("hit", "hits"),
			Count("miss", "misses"),
		},
		"refine": {
			ScanAll("lineitem", "l_shipdate", "all"),
			Refine("all", "lineitem", "l_shipdate", "r1", PredIRange(19970101, 19980101)),
			Refine("all", "lineitem", "l_discount", "r2", PredFRange(0.06, 0.08)),
			Refine("all", "lineitem", "l_quantity", "r3", PredFLess(24)),
			Refine("all", "lineitem", "l_orderkey", "r4", PredIIn(1, 2, 3, 100)),
			Refine("all", "lineitem", "l_orderkey", "r5", PredIEq(17)),
			Refine("all", "lineitem", "l_orderkey", "r6", PredINe(17)),
			Refine("all", "lineitem", "l_quantity", "r7", PredFRange(41, math.Inf(1))),
			Refine("all", "lineitem", "l_quantity", "r8", PredAll()),
			Refine("r1", "lineitem", "l_orderkey", "r9", PredAll()),
			Count("r1", "n1"),
		},
		"candidates as keys": {
			ScanAll("tiny", "k", "all"),
			Build("all", "", "oids"),
			GroupSum("all", "", "parts"),
			GroupMerge("parts", "gk", "gs"),
			TopN("gk", "gs", 5),
			ScanAll("lineitem", "l_orderkey", "li"),
			ProbeSemi("li", "lineitem", "l_orderkey", "oids", "small"),
		},
	}
	for name, ops := range plans {
		t.Run(name, func(t *testing.T) {
			// Every prefix of the plan runs both ways, so each variable is a
			// result — still bound when the query ends — in one of them.
			for k := 1; k <= len(ops); k++ {
				build, buildRef := bothWays(PlanSpec{Name: name, Ops: ops[:k]})
				fast, ref, fm, rm := runPlanBothWays(t, 40000, build, buildRef)
				sameOutcome(t, fast, ref, fm, rm)
			}
			build, buildRef := bothWays(PlanSpec{Name: name, Ops: through(ops, "all")})
			fast, ref, _, _ := runPlanBothWays(t, 40000, build, buildRef)
			if fast.Var("all").Rows() == 0 {
				t.Fatal("the full scan produced no candidates")
			}
			for i, frag := range fast.Var("all").Parts {
				if frag.I != nil {
					t.Fatal("the fast path materialized a full scan's candidate list")
				}
				if ref.Var("all").Parts[i].I == nil {
					t.Fatal("the reference lowering did not materialize the full scan's candidate list")
				}
			}
		})
	}
}

// TestGatherChargeDense: positions a … b of a dense candidate charge the
// same blocks of the underlying column as the materialized list.
func TestGatherChargeDense(t *testing.T) {
	charge := func(cand *BAT, a, b int) (uint64, numa.Counters) {
		m := numa.NewMachine(numa.Opteron8387())
		st := NewStore(m)
		if _, err := st.CreateTable("t", map[string]*BAT{"c": NewI64("c", make([]int64, 9000))}); err != nil {
			t.Fatal(err)
		}
		ctx := &sched.ExecContext{Machine: m, Core: 0, PID: 1}
		return chargeGathered(ctx, cand, st.Table("t").Col("c"), a, b), m.Snapshot()
	}
	for _, w := range [][2]int{{0, 5000}, {100, 2100}, {4000, 9999}, {6000, 7000}, {3, 3}} {
		gotC, gotS := charge(newDense("cand", 2500, 5000), w[0], w[1])
		wantC, wantS := charge(NewI64("cand", identity(2500, 5000)), w[0], w[1])
		if gotC != wantC || !reflect.DeepEqual(gotS, wantS) {
			t.Errorf("window %v: dense charged %d cycles, materialized %d (or counters differ)", w, gotC, wantC)
		}
	}
}

// TestViewChargesWhatTheCopyCharged: on the engine, a projection through a
// dense candidate list is a view of the base column, and its tasks charge
// what the copy they stand for charged. One ScanAll is planned and run
// alike on two identical machines; a one-op Project over it is then driven
// through the engine's lowering on one and through the refTask oracle,
// whose Gather copies, on the other, with budgets below, around and far
// above a chunk's cost. Every Step must use the same cycles and leave every
// numa counter the same. Each engine fragment must be a view — its tail the
// covered base rows, in place — and the standalone copy drive over its
// candidate must gather the same values, its Charged() the compute cycles
// the task charged.
func TestViewChargesWhatTheCopyCharged(t *testing.T) {
	budgets := []uint64{700, 20000, 300000, 1 << 40}
	for _, col := range []string{"l_orderkey", "l_extendedprice"} {
		mk := func() (*numa.Machine, *Query, *sched.ExecContext) {
			r := newSpecRigRows(t, 30000)
			eng, err := NewEngine(r.store, Config{Scheduler: r.sched, PID: 101, Fanout: 4, MinPartRows: 64, ParseCycles: -1})
			if err != nil {
				t.Fatal(err)
			}
			q, ctx := planningQuery(eng), &sched.ExecContext{Machine: r.machine, PID: 101}
			scan := ScanAll("lineitem", "l_shipdate", "all")
			for _, tk := range planOp(q, &scan) {
				for done := false; !done; {
					_, done = tk.Step(ctx, 1<<40)
				}
			}
			return r.machine, q, ctx
		}
		fm, fq, fctx := mk()
		rm, rq, rctx := mk()
		proj := Project("all", "lineitem", col, "v")
		fts, rts := planOp(fq, &proj), refProjection("all", "lineitem", col, "v")(rq)
		if len(fts) != len(rts) || len(fts) == 0 {
			t.Fatalf("%s: %d tasks, oracle %d", col, len(fts), len(rts))
		}
		for ti := range fts {
			fctx.Core = numa.CoreID(3 * ti % fm.Topology().TotalCores())
			rctx.Core = fctx.Core
			for n := 0; ; n++ {
				b := budgets[(ti+n)%len(budgets)]
				uf, df := fts[ti].Step(fctx, b)
				ur, dr := rts[ti].Step(rctx, b)
				if uf != ur || df != dr {
					t.Fatalf("%s task %d step %d: used %d done %v, oracle %d %v", col, ti, n, uf, df, ur, dr)
				}
				if !reflect.DeepEqual(fm.Snapshot(), rm.Snapshot()) {
					t.Fatalf("%s task %d step %d: numa counters differ from the oracle", col, ti, n)
				}
				if df {
					break
				}
			}
		}
		base := fq.eng.store.Table("lineitem").Col(col)
		r := newDiffRNG(uint64(len(col)))
		for i, frag := range fq.Var("v").Parts {
			cand, w := fq.Var("all").Parts[i], rq.Var("v").Parts[i]
			label := fmt.Sprintf("%s[%d]", col, i)
			var tail, row unsafe.Pointer
			if base.Kind == KindI64 {
				tail, row = unsafe.Pointer(unsafe.SliceData(frag.I)), unsafe.Pointer(&base.I[cand.seq])
			} else {
				tail, row = unsafe.Pointer(unsafe.SliceData(frag.F)), unsafe.Pointer(&base.F[cand.seq])
			}
			if cand.n == 0 || !frag.view || w.view || tail != row || frag.Len() != cand.n {
				t.Fatalf("%s: the engine's fragment is not a view of base rows [%d, +%d), or the oracle's is", label, cand.seq, cand.n)
			}
			if frag.placed != w.placed || frag.start != w.start {
				t.Fatalf("%s: region %v@%d, oracle %v@%d", label, frag.placed, frag.start, w.placed, w.start)
			}
			g := NewGather(base, cand, &BAT{Name: "v", Kind: base.Kind})
			gi, gf := drain(g, r)
			eqI64(t, label, frag.I, w.I)
			eqF64(t, label, frag.F, w.F)
			eqI64(t, label+" standalone", gi, w.I)
			eqF64(t, label+" standalone", gf, w.F)
			eqCycles(t, label+" standalone", g, uint64(cand.Len())*fts[i].(*chunkTask).cyclesPerTuple)
		}
	}
}

// TestReserveNeverGrows is the property behind "tables sized once":
// reserve(n) followed by n inserts — any keys: zero, negative, duplicate —
// never replaces the table arrays, and the contents match a Go map.
func TestReserveNeverGrows(t *testing.T) {
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		for _, n := range []int{0, 1, 12, 13, 96, 97, 1000, 5000} {
			keys := make([]int64, n)
			for i := range keys {
				switch r.intn(4) {
				case 0:
					keys[i] = int64(r.intn(8)) - 4 // zero, negatives, duplicates
				case 1:
					keys[i] = int64(r.Next())
				default:
					keys[i] = int64(r.intn(2*n + 1))
				}
			}
			var ii i64Map
			var fi i64fMap
			ii.reserve(n)
			fi.reserve(n)
			ctrlII, ctrlFI := unsafe.SliceData(ii.ctrl), unsafe.SliceData(fi.ctrl)
			wantII, wantFI := map[int64]int64{}, map[int64]float64{}
			for i, k := range keys {
				ii.Put(k, int64(i))
				fi.Add(k, float64(i))
				wantII[k] = int64(i)
				wantFI[k] += float64(i)
			}
			if unsafe.SliceData(ii.ctrl) != ctrlII || unsafe.SliceData(fi.ctrl) != ctrlFI {
				t.Fatalf("n=%d: a reserved table grew", n)
			}
			if ii.Len() != len(wantII) || fi.Len() != len(wantFI) {
				t.Fatalf("n=%d: tables hold %d/%d keys, want %d/%d", n, ii.Len(), fi.Len(), len(wantII), len(wantFI))
			}
			for k, v := range wantII {
				if got, ok := ii.Get(k); !ok || got != v {
					t.Fatalf("n=%d: i64Map[%d] = (%d, %v), want %d", n, k, got, ok, v)
				}
				if got, ok := fi.Get(k); !ok || got != wantFI[k] {
					t.Fatalf("n=%d: i64fMap[%d] = (%g, %v), want %g", n, k, got, ok, wantFI[k])
				}
			}
			// Reserving on top of live entries keeps them.
			ii.reserve(4*n + 64)
			for k, v := range wantII {
				if got, ok := ii.Get(k); !ok || got != v {
					t.Fatalf("n=%d: key %d lost by a later reserve", n, k)
				}
			}
		}
	}
}

// TestIntermediatesAllocateWhatTheyHold guards the host-side costs this
// layer sheds: a full scan allocates no tail; a reserved hash table
// allocates each of its three arrays exactly once, a positional build its
// bitmap (and payload array), a positional partial or merge its two arrays
// before the first row; selection, probe (either table form) and gather
// kernels with a presized buffer allocate nothing per chunk; and a
// selection the engine runs as a job ends, joined into an empty pool, in a
// buffer under twice what it holds.
func TestIntermediatesAllocateWhatTheyHold(t *testing.T) {
	const rows = 1 << 14
	col := NewI64("c", identity(0, rows))
	if got := testing.AllocsPerRun(20, func() {
		fs := NewFilterScan(col, PredAll(), 0, rows, nil)
		fs.runRange(0, rows)
		all := NewI64("all", nil)
		if fs.fill(all); all.Len() != rows {
			t.Fatal("full scan lost rows")
		}
	}); got > 2 { // the operator and the BAT header
		t.Errorf("a full scan allocated %v objects, want at most 2 (no tail)", got)
	}

	if got := testing.AllocsPerRun(20, func() {
		var m i64Map
		m.reserve(rows)
		for _, k := range col.I {
			m.Put(k, 1)
		}
	}); got != 3 {
		t.Errorf("a reserved build allocated %v arrays, want 3", got)
	}
	// Sized from its keys' bounds the same build is a bitmap (one array)
	// when it only keeps membership, a bitmap and a payload array otherwise.
	for _, tc := range []struct {
		member bool
		arrays float64
	}{{true, 1}, {false, 2}} {
		if got := testing.AllocsPerRun(20, func() {
			var m i64Map
			lo, hi := col.widen(noKeys())
			if !m.tryPositional(lo, hi, rows, tc.member) {
				t.Fatal("a build over 0 … rows-1 is not positional")
			}
			for _, k := range col.I {
				m.Put(k, 1)
			}
			if m.span == 0 {
				t.Fatal("the build left the positional form")
			}
		}); got != tc.arrays {
			t.Errorf("a positional build (membership %v) allocated %v arrays, want %v", tc.member, got, tc.arrays)
		}
	}
	partial := &i64fMap{}
	for _, k := range col.I {
		partial.Add(k%977, 1)
	}
	if got := testing.AllocsPerRun(20, func() {
		var total i64fMap
		total.reserve(partial.Len())
		partial.Range(total.Add)
	}); got != 3 {
		t.Errorf("a reserved merge allocated %v arrays, want 3", got)
	}
	// A partial whose keys have bounds is sized once — two arrays, before
	// the first row — where the hash form doubles its way up.
	groupKeys := NewI64("g", make([]int64, rows))
	for i := range groupKeys.I {
		groupKeys.I[i] = int64(i % 977)
	}
	if got := testing.AllocsPerRun(20, func() {
		var m i64fMap
		lo, hi := groupKeys.widen(noKeys())
		m.tryPositional(lo, hi, rows, false)
		sized := unsafe.SliceData(m.byPos)
		ga := NewGroupAgg(groupKeys, nil, &m)
		for a := 0; a < rows; a += 2048 {
			ga.runRange(a, a+2048)
		}
		if m.Len() != 977 || unsafe.SliceData(m.byPos) != sized {
			t.Fatal("the positional partial regrew or lost groups")
		}
	}); got > 4 { // the table, its bitmap and sums, the operator
		t.Errorf("a positional partial allocated %v objects, want at most 4", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		var total i64fMap
		lo, hi := partial.widen(noKeys())
		total.tryPositional(lo, hi, partial.Len(), false)
		partial.Range(total.Add)
		if total.span == 0 || total.Len() != partial.Len() {
			t.Fatal("the merge of a dense key range is not positional")
		}
	}); got != 2 {
		t.Errorf("a positional merge allocated %v arrays, want 2", got)
	}

	cand := NewI64("cand", identity(0, rows))
	ids := make([]int64, 0, rows)
	mod3 := NewI64("m", make([]int64, rows)) // every third row matches PredIEq(0)
	for i := range mod3.I {
		mod3.I[i] = int64(i % 3)
	}
	fr := NewFilterRefine(mod3, PredIEq(0), cand, ids)
	third, thirdPos := &i64Map{}, &i64Map{}
	thirdPos.tryPositional(0, rows-1, rows/3, false)
	for k := int64(0); k < rows; k += 3 {
		third.Put(k, k)
		thirdPos.Put(k, k)
	}
	if third.span != 0 || thirdPos.span == 0 {
		t.Fatal("the probe pass does not cover both table forms")
	}
	hp := NewHashProbe(col, cand, third, false, true, make([]int64, 0, rows), make([]int64, 0, rows))
	hpPos := NewHashProbe(col, cand, thirdPos, false, true, make([]int64, 0, rows), make([]int64, 0, rows))
	out := NewI64("out", make([]int64, 0, rows))
	g := NewGather(col, cand, out)
	if got := testing.AllocsPerRun(20, func() {
		fr.ids, hp.ids, hp.payloads, out.I = fr.ids[:0], hp.ids[:0], hp.payloads[:0], out.I[:0]
		hpPos.ids, hpPos.payloads = hpPos.ids[:0], hpPos.payloads[:0]
		for a := 0; a < rows; a += 2048 {
			fr.runRange(a, a+2048)
			hp.runRange(a, a+2048)
			hpPos.runRange(a, a+2048)
			g.runRange(a, a+2048)
		}
	}); got != 0 {
		t.Errorf("presized selection, probe and gather kernels allocated %v times per pass, want 0", got)
	}

	// Joined into an empty pool, every selection kind — whatever survives,
	// a third, all, none, five rows — holds the one buffer of its exact
	// size class: less than twice its survivors, and none for none.
	for _, tc := range []struct {
		rows int
		col  *BAT
		p    Pred
	}{{rows, mod3, PredIEq(0)}, {rows, col, PredIRange(0, rows)}, {rows, col, PredIEq(-1)}, {64, col, PredIRange(0, rows)}, {5, col, PredIRange(0, rows)}} {
		eng := &Engine{}
		cand := NewI64("cand", identity(0, tc.rows))
		fs, fr := NewFilterScan(tc.col, tc.p, 0, tc.rows, nil), NewFilterRefine(tc.col, tc.p, cand, nil)
		hp := NewHashProbe(tc.col, cand, third, false, true, nil, nil)
		for _, k := range []jobKernel{fs, fr, hp} {
			j := job{k: k, eng: eng}
			j.join()
		}
		for _, ids := range [][]int64{fs.ids, fr.ids, hp.ids, hp.payloads} {
			if cap(ids) >= max(2*len(ids), 1) {
				t.Errorf("%d rows under %v: a selection holding %d values ended with capacity %d", tc.rows, tc.p, len(ids), cap(ids))
			}
		}
	}

	// A sparse projection that only a grouped sum reads is a view of its
	// candidate list's ids: planning and running its stage draws nothing
	// from the pool. Read by a hash build, the same projection is gathered
	// into a buffer of the pool.
	for _, tc := range []struct {
		reader OpSpec
		view   bool
	}{{GroupSum("k", "", "parts"), true}, {Build("k", "", "set"), false}} {
		r := newDBRig(t, rows, PlacementOS)
		q := HandQuery(r.eng, lower("project", Scan("lineitem", "l_extendedprice", "c", PredFLess(300)),
			Project("c", "lineitem", "l_orderkey", "k"), tc.reader))
		ctx := &sched.ExecContext{Machine: r.machine, PID: 100}
		var lent [3]int
		for i := range lent {
			for _, tk := range PlanStep(q, i) {
				for done := false; !done; {
					_, done = tk.Step(ctx, 1<<40)
				}
			}
			lent[i] = r.eng.pool.lent
			if i == 1 {
				for _, frag := range q.Var("k").Parts {
					if frag.Len() == 0 || frag.view != tc.view || frag.sparse != tc.view {
						t.Fatalf("read by %v: a fragment of %d rows has view %v, sparse %v", tc.reader.Kind, frag.Len(), frag.view, frag.sparse)
					}
				}
			}
		}
		if drew := lent[1] - lent[0]; (drew == 0) != tc.view {
			t.Errorf("read by %v: the projection drew %d pool buffers", tc.reader.Kind, drew)
		}
		ReleaseHand(r.eng, q)
		if err := poolAtRest(r.eng); err != nil {
			t.Errorf("read by %v: %v", tc.reader.Kind, err)
		}
	}
}

// refTask is the chunkTask of before a stage became one slab, kept as the
// oracle of the engine drive: its inputs in a slice, the computation, the
// gather charge and the materialization as closures, the written BATs
// handed back in a fresh slice.
type refTask struct {
	inputs         []*BAT
	lo, hi, chunk  int
	cursor         int
	cyclesPerTuple uint64

	process     func(a, b int)
	extraCharge func(ctx *sched.ExecContext, a, b int) uint64
	finish      func() []*BAT

	finished bool
	debt     uint64
}

func newRefTask(q *Query, inputs []*BAT, lo, hi int, cyclesPerTuple uint64) *refTask {
	chunk := max(q.Machine().Topology().BlockBytes/valueBytes, 1)
	return &refTask{inputs: inputs, lo: lo, hi: hi, chunk: chunk, cursor: lo, cyclesPerTuple: cyclesPerTuple}
}

func (t *refTask) Step(ctx *sched.ExecContext, budget uint64) (uint64, bool) {
	var used uint64
	if t.debt > 0 {
		if t.debt >= budget {
			t.debt -= budget
			return budget, false
		}
		used = t.debt
		t.debt = 0
	}
	for used < budget && t.cursor < t.hi {
		n := t.chunk
		if rem := t.hi - t.cursor; n > rem {
			n = rem
		}
		cost := uint64(n) * t.cyclesPerTuple
		for _, in := range t.inputs {
			if in != nil && in.Len() > 0 {
				lo, hi := t.cursor, t.cursor+n
				if hi > in.Len() {
					hi = in.Len()
				}
				if lo < hi {
					cost += in.chargeRange(ctx, lo, hi, false)
				}
			}
		}
		if t.extraCharge != nil {
			cost += t.extraCharge(ctx, t.cursor, t.cursor+n)
		}
		t.process(t.cursor, t.cursor+n)
		t.cursor += n
		used += cost
	}
	if t.cursor >= t.hi && !t.finished {
		t.finished = true
		for _, out := range t.finish() {
			if out != nil && out.Len() > 0 {
				used += out.chargeRange(ctx, 0, out.Len(), true)
			}
		}
	}
	if used > budget {
		t.debt = used - budget
		used = budget
	}
	return used, t.finished && t.debt == 0
}

// refGatherCharge is the gather charge as the closure it was.
func refGatherCharge(cand *BAT, col *BAT) func(*sched.ExecContext, int, int) uint64 {
	return func(ctx *sched.ExecContext, a, b int) uint64 {
		if b = min(b, cand.Len()); a >= b {
			return 0
		}
		if cand.n > 0 {
			return col.chargeRange(ctx, cand.seq+a, cand.seq+b, false)
		}
		return col.chargeRange(ctx, int(cand.I[a]), int(cand.I[b-1])+1, false)
	}
}

// refStage is the closure lowering of one chunked stage: what its builder
// did before the slab, a task, an operator, a header and three closures
// per partition. TestDiffEngineDrive runs each against the builder.
type refStage func(q *Query) []*refTask

func refThetaSelect(table, col, out string, p Pred) refStage {
	return func(q *Query) []*refTask {
		base := q.eng.store.Table(table)
		c := base.Col(col)
		ranges := partitionRanges(nil, base.Rows, q.Fanout(), q.eng.cfg.MinPartRows)
		ps := &PartSet{Parts: make([]*BAT, len(ranges))}
		q.SetVar(out, ps)
		tasks := make([]*refTask, len(ranges))
		for i, r := range ranges {
			t := newRefTask(q, []*BAT{c}, r[0], r[1], cyclesScan)
			op := NewFilterScan(c, refPred(p, c.Kind), r[0], r[1], nil)
			t.process = op.runRange
			t.finish = func() []*BAT {
				frag := NewI64(out, nil)
				op.fill(frag)
				ps.Parts[i] = frag
				return []*BAT{frag}
			}
			tasks[i] = t
		}
		return tasks
	}
}

func refSubSelect(in, table, col, out string, p Pred) refStage {
	return func(q *Query) []*refTask {
		c := q.eng.store.Table(table).Col(col)
		inPS := q.Var(in)
		ps := &PartSet{Parts: make([]*BAT, len(inPS.Parts))}
		q.SetVar(out, ps)
		var tasks []*refTask
		for i, cand := range inPS.Parts {
			if cand == nil || cand.Len() == 0 {
				ps.Parts[i] = NewI64(out, nil)
				continue
			}
			t := newRefTask(q, []*BAT{cand}, 0, cand.Len(), cyclesGather)
			t.extraCharge = refGatherCharge(cand, c)
			op := NewFilterRefine(c, refPred(p, c.Kind), cand, nil)
			t.process = op.runRange
			t.finish = func() []*BAT {
				frag := NewI64(out, op.ids)
				ps.Parts[i] = frag
				return []*BAT{frag}
			}
			tasks = append(tasks, t)
		}
		return tasks
	}
}

func refProjection(in, table, col, out string) refStage {
	return func(q *Query) []*refTask {
		c := q.eng.store.Table(table).Col(col)
		inPS := q.Var(in)
		ps := &PartSet{Parts: make([]*BAT, len(inPS.Parts))}
		q.SetVar(out, ps)
		var tasks []*refTask
		for i, cand := range inPS.Parts {
			outB := &BAT{Name: out, Kind: c.Kind}
			if cand == nil || cand.Len() == 0 {
				ps.Parts[i] = outB
				continue
			}
			t := newRefTask(q, []*BAT{cand}, 0, cand.Len(), cyclesGather)
			t.extraCharge = refGatherCharge(cand, c)
			t.process = NewGather(c, cand, outB).runRange
			t.finish = func() []*BAT {
				ps.Parts[i] = outB
				return []*BAT{outB}
			}
			tasks = append(tasks, t)
		}
		return tasks
	}
}

func refMapF2(a, b, out string, f func(x, y float64) float64) refStage {
	return func(q *Query) []*refTask {
		pa, pb := q.Var(a), q.Var(b)
		ps := &PartSet{Parts: make([]*BAT, len(pa.Parts))}
		q.SetVar(out, ps)
		var tasks []*refTask
		for i := range pa.Parts {
			fa, fb := pa.Parts[i], pb.Parts[i]
			if fa == nil || fa.Len() == 0 {
				ps.Parts[i] = NewF64(out, nil)
				continue
			}
			t := newRefTask(q, []*BAT{fa, fb}, 0, fa.Len(), cyclesMap)
			op := NewMapBinary(fa, fb, f, nil)
			t.process = op.runRange
			t.finish = func() []*BAT {
				frag := NewF64(out, op.res)
				ps.Parts[i] = frag
				return []*BAT{frag}
			}
			tasks = append(tasks, t)
		}
		return tasks
	}
}

func refSumF(in, scalar string) refStage {
	return func(q *Query) []*refTask {
		var tasks []*refTask
		for _, frag := range q.Var(in).Parts {
			if frag == nil || frag.Len() == 0 {
				continue
			}
			t := newRefTask(q, []*BAT{frag}, 0, frag.Len(), cyclesSum)
			op := NewSumAgg(frag)
			t.process = op.runRange
			t.finish = func() []*BAT {
				q.AddScalar(scalar, op.partial)
				return nil
			}
			tasks = append(tasks, t)
		}
		return tasks
	}
}

func refProbe(inCand, table, col, setName, outCand, outVals string, anti bool) refStage {
	return func(q *Query) []*refTask {
		c := q.eng.store.Table(table).Col(col)
		inPS := q.Var(inCand)
		set := q.Set(setName)
		ps := &PartSet{Parts: make([]*BAT, len(inPS.Parts))}
		q.SetVar(outCand, ps)
		var vps *PartSet
		if outVals != "" {
			vps = &PartSet{Parts: make([]*BAT, len(inPS.Parts))}
			q.SetVar(outVals, vps)
		}
		var tasks []*refTask
		for i, cand := range inPS.Parts {
			if cand == nil || cand.Len() == 0 {
				ps.Parts[i] = NewI64(outCand, nil)
				if vps != nil {
					vps.Parts[i] = NewI64(outVals, nil)
				}
				continue
			}
			t := newRefTask(q, []*BAT{cand}, 0, cand.Len(), cyclesProbe)
			t.extraCharge = refGatherCharge(cand, c)
			op := NewHashProbe(c, cand, set, anti, vps != nil, nil, nil)
			t.process = op.runRange
			t.finish = func() []*BAT {
				frag := NewI64(outCand, op.ids)
				ps.Parts[i] = frag
				outs := []*BAT{frag}
				if vps != nil {
					vf := NewI64(outVals, op.payloads)
					vps.Parts[i] = vf
					outs = append(outs, vf)
				}
				return outs
			}
			tasks = append(tasks, t)
		}
		return tasks
	}
}

func refGroupSum(keysVar, valsVar, partialsName string) refStage {
	return func(q *Query) []*refTask {
		keys := q.Var(keysVar)
		vals := keys
		if valsVar != "" {
			vals = q.Var(valsVar)
		}
		partials := make([]*i64fMap, len(keys.Parts))
		q.setPartials(partialsName, partials)
		var tasks []*refTask
		for i := range keys.Parts {
			kf, vf := keys.Parts[i], vals.Parts[i]
			if kf == nil || kf.Len() == 0 {
				continue
			}
			inputs := []*BAT{kf}
			aggIn := vf
			if valsVar == "" {
				aggIn = nil
			} else {
				inputs = append(inputs, vf)
			}
			t := newRefTask(q, inputs, 0, kf.Len(), cyclesGroup)
			partial := &i64fMap{}
			lo, hi := kf.widen(noKeys())
			partial.tryPositional(lo, hi, kf.Len(), false)
			op := NewGroupAgg(kf, aggIn, partial)
			t.process = op.runRange
			t.finish = func() []*BAT {
				partials[i] = op.agg
				return nil
			}
			tasks = append(tasks, t)
		}
		return tasks
	}
}
