package db

import (
	"reflect"
	"testing"
	"unsafe"

	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// dense_test.go pins what the tail-less candidate form, the reserved hash
// tables and the blind-write kernels must leave unchanged: query results,
// every simulated access, and the host allocations they exist to avoid.

// lowering rewrites a plan's predicates before the plan is built.
type lowering func(Pred) Pred

// refPred is the reference lowering of a predicate: its inlinable form
// cleared, so a selection runs the closure-per-row arm and a PredAll scan
// materializes the identity vector instead of answering with a dense
// range. The differentials below execute a plan and its reference
// lowering side by side.
func refPred(p Pred) Pred {
	p.form = predGeneric
	return p
}

// refSpec is the reference lowering of a declarative plan.
func refSpec(spec PlanSpec) PlanSpec {
	spec.Ops = append([]OpSpec(nil), spec.Ops...)
	for i := range spec.Ops {
		spec.Ops[i].Pred = refPred(spec.Ops[i].Pred)
	}
	return spec
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
// kinds, the three probes, refinement in inlined, IN-list and closure
// forms, count, and use as join and group keys — against their reference
// lowering (materialized identity vectors, closure-per-row predicates).
func TestScanAllPlansMatchNaive(t *testing.T) {
	plans := map[string]func(pr lowering) []StageFn{
		"project+sum": func(pr lowering) []StageFn {
			return []StageFn{
				ThetaSelect("lineitem", "l_orderkey", "all", pr(PredAll())),
				Projection("all", "lineitem", "l_extendedprice", "p"),
				Projection("all", "lineitem", "l_discount", "d"),
				Projection("all", "lineitem", "l_orderkey", "ok"),
				MapF2("p", "d", "rev", func(x, y float64) float64 { return x * y }),
				SumF("rev", "result"),
				Count("all", "rows"),
			}
		},
		"probes": func(pr lowering) []StageFn {
			return []StageFn{
				ThetaSelect("lineitem", "l_extendedprice", "cheap", pr(PredFLess(300))),
				Projection("cheap", "lineitem", "l_orderkey", "keys"),
				Projection("cheap", "lineitem", "l_shipdate", "dates"),
				BuildMap("keys", "dates", "seen"),
				ThetaSelect("lineitem", "l_orderkey", "all", pr(PredAll())),
				ProbeSemi("all", "lineitem", "l_orderkey", "seen", "hit"),
				ProbeAnti("all", "lineitem", "l_orderkey", "seen", "miss"),
				ProbeFetch("all", "lineitem", "l_orderkey", "seen", "got", "when"),
				Count("hit", "hits"),
				Count("miss", "misses"),
			}
		},
		"refine": func(pr lowering) []StageFn {
			return []StageFn{
				ThetaSelect("lineitem", "l_shipdate", "all", pr(PredAll())),
				SubSelect("all", "lineitem", "l_shipdate", "r1", pr(PredIRange(19970101, 19980101))),
				SubSelect("all", "lineitem", "l_discount", "r2", pr(PredFRange(0.06, 0.08))),
				SubSelect("all", "lineitem", "l_quantity", "r3", pr(PredFLess(24))),
				SubSelect("all", "lineitem", "l_orderkey", "r4", pr(PredIIn(1, 2, 3, 100))),
				SubSelect("all", "lineitem", "l_orderkey", "r5", pr(PredIEq(17))),
				SubSelect("all", "lineitem", "l_orderkey", "r6", Pred{I: func(v int64) bool { return v%3 == 0 }}),
				SubSelect("all", "lineitem", "l_quantity", "r7", Pred{F: func(v float64) bool { return v > 40 }}),
				SubSelect("all", "lineitem", "l_quantity", "r8", pr(PredAll())),
				SubSelect("r1", "lineitem", "l_orderkey", "r9", pr(PredAll())),
				Count("r1", "n1"),
			}
		},
		"candidates as keys": func(pr lowering) []StageFn {
			return []StageFn{
				ThetaSelect("tiny", "k", "all", pr(PredAll())),
				BuildMap("all", "", "oids"),
				GroupSum("all", "", "parts"),
				GroupMerge("parts", "gk", "gs"),
				TopN("gk", "gs", 5),
				ThetaSelect("lineitem", "l_orderkey", "li", pr(PredAll())),
				ProbeSemi("li", "lineitem", "l_orderkey", "oids", "small"),
			}
		},
	}
	for name, stages := range plans {
		t.Run(name, func(t *testing.T) {
			build := func(pr lowering) func(*Store) (*Plan, error) {
				return func(*Store) (*Plan, error) { return &Plan{Name: name, Stages: stages(pr)}, nil }
			}
			fast, ref, fm, rm := runPlanBothWays(t, 40000, build(func(p Pred) Pred { return p }), build(refPred))
			sameOutcome(t, fast, ref, fm, rm)
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
		return gatherCharge(cand, st.Table("t").Col("c"))(ctx, a, b), m.Snapshot()
	}
	for _, w := range [][2]int{{0, 5000}, {100, 2100}, {4000, 9999}, {6000, 7000}, {3, 3}} {
		gotC, gotS := charge(newDense("cand", 2500, 5000), w[0], w[1])
		wantC, wantS := charge(NewI64("cand", identity(2500, 5000)), w[0], w[1])
		if gotC != wantC || !reflect.DeepEqual(gotS, wantS) {
			t.Errorf("window %v: dense charged %d cycles, materialized %d (or counters differ)", w, gotC, wantC)
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
// before the first row; and selection, probe (either table form) and
// gather kernels with a hinted buffer allocate nothing per chunk.
func TestIntermediatesAllocateWhatTheyHold(t *testing.T) {
	const rows = 1 << 14
	col := NewI64("c", identity(0, rows))
	if got := testing.AllocsPerRun(20, func() {
		fs := NewFilterScan(col, PredAll(), 0, rows, nil)
		fs.runRange(0, rows)
		if fs.result("all").Len() != rows {
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
	ids := make([]int64, 0, selHint(rows))
	pred := Pred{I: func(v int64) bool { return v%3 == 0 }}
	fr := NewFilterRefine(col, pred, cand, ids)
	third, thirdPos := &i64Map{}, &i64Map{}
	thirdPos.tryPositional(0, rows-1, rows/3, false)
	for k := int64(0); k < rows; k += 3 {
		third.Put(k, k)
		thirdPos.Put(k, k)
	}
	if third.span != 0 || thirdPos.span == 0 {
		t.Fatal("the probe pass does not cover both table forms")
	}
	hp := NewHashProbe(col, cand, third, false, true, make([]int64, 0, selHint(rows)), make([]int64, 0, selHint(rows)))
	hpPos := NewHashProbe(col, cand, thirdPos, false, true, make([]int64, 0, selHint(rows)), make([]int64, 0, selHint(rows)))
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
		t.Errorf("hinted selection, probe and gather kernels allocated %v times per pass, want 0", got)
	}

	// The hint itself: a selection keeping a third of its input never
	// regrows a buffer of selHint capacity, and an input no longer than
	// the first strip never does, whatever survives.
	for _, tc := range []struct {
		rows int
		p    Pred
	}{{rows, pred}, {minStrip, PredIRange(0, rows)}, {5, PredIRange(0, rows)}} {
		buf := make([]int64, 0, selHint(tc.rows))
		fs := NewFilterScan(col, tc.p, 0, tc.rows, buf)
		for a := 0; a < tc.rows; a += 2048 {
			fs.runRange(a, min(a+2048, tc.rows))
		}
		if len(fs.ids) == 0 || unsafe.SliceData(fs.ids) != unsafe.SliceData(buf[:1]) {
			t.Errorf("%d rows: the hinted selection buffer was regrown (or nothing matched)", tc.rows)
		}
	}
}
