package db

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// newSpecRig extends the db rig with a second, smaller table so compile
// validation of cross-table mistakes and point lookups has something to
// trip on: "tiny" holds a sorted integer key column k (0..63) and a float
// payload v.
func newSpecRig(t *testing.T) *rig { return newSpecRigRows(t, 512) }

// newSpecRigRows is newSpecRig with a lineitem of the given size.
func newSpecRigRows(t *testing.T, lineitems int) *rig {
	t.Helper()
	r := newDBRig(t, lineitems, PlacementOS)
	const rows = 64
	k := make([]int64, rows)
	v := make([]float64, rows)
	for i := range k {
		k[i] = int64(i)
		v[i] = float64(i) * 1.5
	}
	if _, err := r.store.CreateTable("tiny", map[string]*BAT{
		"k": NewI64("k", k),
		"v": NewF64("v", v),
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

// spec names a list of steps.
func spec(name string, ops ...OpSpec) PlanSpec { return PlanSpec{Name: name, Ops: ops} }

func TestPlanSpecCompilesAndMatchesHandwrittenQ6(t *testing.T) {
	r := newSpecRig(t)
	plan, err := q6Spec().Compile(r.store)
	if err != nil {
		t.Fatal(err)
	}
	q := r.eng.Submit(plan)
	r.run(t, q)
	want := q6Reference(r.store)
	if got := q.Scalar("revenue"); math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Errorf("spec-compiled revenue = %g, want %g", got, want)
	}
}

func TestPlanSpecJoinGroupPipeline(t *testing.T) {
	// Count cheap lineitem rows per orderkey, via the full build / probe /
	// group / merge / filter / topn surface, then a point lookup on tiny.
	r := newSpecRig(t)
	s := spec("join-group",
		Scan("lineitem", "l_extendedprice", "cheap", PredFLess(300)),
		Project("cheap", "lineitem", "l_orderkey", "keys"),
		Build("keys", "", "orders-seen"),
		ScanAll("lineitem", "l_orderkey", "all"),
		ProbeSemi("all", "lineitem", "l_orderkey", "orders-seen", "hit"),
		Project("hit", "lineitem", "l_orderkey", "hitkeys"),
		GroupSum("hitkeys", "", "parts"),
		GroupMerge("parts", "gk", "gs"),
		GroupFilter("gk", "gs", 3.5), // counts are whole: sum >= 4
		TopN("gk", "gs", 5),
		Count("gk", "groups"),
		Lookup("tiny", "k", "v", 40, "point"))
	plan, err := s.Compile(r.store)
	if err != nil {
		t.Fatal(err)
	}
	q := r.eng.Submit(plan)
	r.run(t, q)

	// Reference: rows with price < 300 mark their orderkey; every lineitem
	// row of a marked order counts toward its group.
	li := r.store.Table("lineitem")
	price, keys := li.Col("l_extendedprice").F, li.Col("l_orderkey").I
	marked := map[int64]bool{}
	for i, p := range price {
		if p < 300 {
			marked[keys[i]] = true
		}
	}
	counts := map[int64]int{}
	for _, k := range keys {
		if marked[k] {
			counts[k]++
		}
	}
	kept := 0
	for _, n := range counts {
		if n >= 4 {
			kept++
		}
	}
	wantGroups := kept
	if wantGroups > 5 {
		wantGroups = 5
	}
	if got := int(q.Scalar("groups")); got != wantGroups {
		t.Errorf("groups = %d, want %d", got, wantGroups)
	}
	if got := q.Scalar("point"); got != 60 {
		t.Errorf("point lookup = %g, want 60", got)
	}
	if got := q.Scalar("point.found"); got != 1 {
		t.Errorf("point.found = %g, want 1", got)
	}
}

// TestPlanBuilderChainsTheSameSteps: the chained form compiles the steps
// the constructors of the same names build — the join and the group-by the
// benchmark writes that way.
func TestPlanBuilderChainsTheSameSteps(t *testing.T) {
	r := newSpecRig(t)
	b := NewPlanSpec("chained").
		ScanAll("lineitem", "l_orderkey", "cl").
		Project("cl", "lineitem", "l_orderkey", "k").
		Project("cl", "lineitem", "l_extendedprice", "p").
		Build("k", "", "seen").
		ProbeSemi("cl", "lineitem", "l_orderkey", "seen", "hit").
		Count("hit", "hits").
		GroupSum("k", "p", "parts").
		GroupMerge("parts", "gk", "gs")
	want := spec("chained",
		ScanAll("lineitem", "l_orderkey", "cl"),
		Project("cl", "lineitem", "l_orderkey", "k"),
		Project("cl", "lineitem", "l_extendedprice", "p"),
		Build("k", "", "seen"),
		ProbeSemi("cl", "lineitem", "l_orderkey", "seen", "hit"),
		Count("hit", "hits"),
		GroupSum("k", "p", "parts"),
		GroupMerge("parts", "gk", "gs"))
	if !reflect.DeepEqual(b.spec, want) {
		t.Fatalf("chained spec:\n%v\nwant:\n%v", b.spec, want)
	}
	plan, err := b.Compile(r.store)
	if err != nil {
		t.Fatal(err)
	}
	q := r.eng.Submit(plan)
	r.run(t, q)
	if rows := float64(r.store.Table("lineitem").Rows); q.Scalar("hits") != rows || q.Var("gk").Rows() == 0 {
		t.Errorf("hits = %g of %g rows, %d groups", q.Scalar("hits"), rows, q.Var("gk").Rows())
	}
}

func TestPlanSpecCompileRejects(t *testing.T) {
	cases := []struct {
		name string
		spec PlanSpec
		want string
	}{
		{"unknown table", spec("t", Scan("ghost", "c", "a", PredAll())), "unknown table"},
		{"unknown column", spec("t", Scan("lineitem", "nope", "a", PredAll())), "no column"},
		{"pred kind mismatch", spec("t", Scan("lineitem", "l_shipdate", "a", PredFLess(1))), "integer predicate"},
		{"missing scan out", spec("t", Scan("lineitem", "l_shipdate", "", PredIEq(1))), "missing output"},
		{"undefined refine input", spec("t", Refine("a", "lineitem", "l_shipdate", "b", PredIEq(1))), "undefined variable"},
		{"cross-table candidates", spec("t",
			ScanAll("tiny", "k", "a"),
			Project("a", "lineitem", "l_discount", "b")), "indexes table"},
		{"misaligned map2", spec("t",
			ScanAll("lineitem", "l_orderkey", "a"),
			ScanAll("lineitem", "l_orderkey", "b"),
			Project("a", "lineitem", "l_discount", "x"),
			Project("b", "lineitem", "l_discount", "y"),
			Map2("x", "y", "z", MapMul)), "not aligned"},
		{"map2 over candidate", spec("t",
			ScanAll("lineitem", "l_orderkey", "a"),
			Map2("a", "a", "z", MapMul)), "not a value vector"},
		{"missing map fn", PlanSpec{Name: "t", Ops: []OpSpec{
			{Kind: OpScan, Table: "lineitem", Col: "l_orderkey", Out: "a", Pred: PredAll()},
			{Kind: OpProject, Table: "lineitem", Col: "l_discount", In: "a", Out: "x"},
			{Kind: OpMap2, In: "x", In2: "x", Out: "z"},
		}}, "missing map function"},
		{"sum over i64", spec("t",
			ScanAll("lineitem", "l_orderkey", "a"),
			Project("a", "lineitem", "l_orderkey", "x"),
			Sum("x", "s")), "wrong value kind"},
		{"probe float column", spec("t",
			ScanAll("lineitem", "l_orderkey", "a"),
			Project("a", "lineitem", "l_orderkey", "x"),
			Build("x", "", "set"),
			ProbeSemi("a", "lineitem", "l_discount", "set", "b")), "must be integer"},
		{"undefined set", spec("t",
			ScanAll("lineitem", "l_orderkey", "a"),
			ProbeSemi("a", "lineitem", "l_orderkey", "set", "b")), "undefined set"},
		{"fetch outputs collide", spec("t",
			ScanAll("lineitem", "l_orderkey", "a"),
			Project("a", "lineitem", "l_orderkey", "x"),
			Build("x", "x", "set"),
			ProbeFetch("a", "lineitem", "l_orderkey", "set", "b", "b")), "must differ"},
		{"undefined partials", spec("t", GroupMerge("p", "k", "s")), "undefined partials"},
		{"merge outputs collide", PlanSpec{Name: "t", Ops: []OpSpec{
			{Kind: OpScan, Table: "lineitem", Col: "l_orderkey", Out: "a", Pred: PredAll()},
			{Kind: OpProject, Table: "lineitem", Col: "l_orderkey", In: "a", Out: "x"},
			{Kind: OpGroupSum, In: "x", Out: "p"},
			{Kind: OpGroupMerge, In: "p", Out: "k", Out2: "k"},
		}}, "must differ"},
		{"negative topn", PlanSpec{Name: "t", Ops: []OpSpec{
			{Kind: OpScan, Table: "lineitem", Col: "l_orderkey", Out: "a", Pred: PredAll()},
			{Kind: OpProject, Table: "lineitem", Col: "l_orderkey", In: "a", Out: "x"},
			{Kind: OpGroupSum, In: "x", Out: "p"},
			{Kind: OpGroupMerge, In: "p", Out: "k", Out2: "s"},
			{Kind: OpTopN, In: "k", In2: "s", N: -3},
		}}, "negative group budget"},
		{"lookup float key", spec("t", Lookup("tiny", "v", "k", 3, "out")), "must be integer"},
		{"unknown kind", PlanSpec{Name: "t", Ops: []OpSpec{{Kind: OpKind(99)}}}, "unknown operator kind"},
	}
	r := newSpecRig(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.Compile(r.store)
			if err == nil {
				t.Fatalf("compile accepted an invalid spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// fuzzTables etc. are the pools FuzzPlanBuild draws from: a mix of valid
// and invalid names, well- and ill-typed predicates.
var (
	fuzzTables = []string{"lineitem", "tiny", "ghost"}
	fuzzCols   = []string{"l_shipdate", "l_quantity", "l_discount", "l_extendedprice", "l_orderkey", "k", "v", "nope"}
	fuzzNames  = []string{"a", "b", "c", "d", ""}
	fuzzPreds  = []Pred{
		PredAll(),
		PredIRange(19970101, 19980101),
		PredFRange(0.0, 0.05),
		PredFLess(24),
		PredIEq(3),
		PredIIn(1, 2, 3),
		{}, // formless: invalid against every column
		PredINe(2),
	}
)

// fuzzSpecOpBytes is the fixed byte budget of one decoded OpSpec.
const fuzzSpecOpBytes = 13

// fuzzSpec decodes raw fuzz bytes into a PlanSpec: every op consumes a
// fixed window of bytes indexing the pools above, so any input maps to a
// structurally arbitrary — frequently invalid — composition.
func fuzzSpec(data []byte) PlanSpec {
	spec := PlanSpec{Name: "fuzz"}
	for pos := 0; pos+fuzzSpecOpBytes <= len(data) && len(spec.Ops) < 24; pos += fuzzSpecOpBytes {
		w := data[pos : pos+fuzzSpecOpBytes]
		op := OpSpec{
			// Two spare kind values exercise the unknown-kind rejection.
			Kind:  OpKind(int(w[0]) % 17),
			Table: fuzzTables[int(w[1])%len(fuzzTables)],
			Col:   fuzzCols[int(w[2])%len(fuzzCols)],
			Col2:  fuzzCols[int(w[3])%len(fuzzCols)],
			In:    fuzzNames[int(w[4])%len(fuzzNames)],
			In2:   fuzzNames[int(w[5])%len(fuzzNames)],
			Out:   fuzzNames[int(w[6])%len(fuzzNames)],
			Out2:  fuzzNames[int(w[7])%len(fuzzNames)],
			Pred:  fuzzPreds[int(w[8])%len(fuzzPreds)],
			// One spare map value exercises the missing-function rejection.
			Map:  MapFn(w[9]%3 + 1),
			Keep: float64(w[10]),
			N:    int(int8(w[11])),
			Key:  int64(w[12]) - 64,
		}
		spec.Ops = append(spec.Ops, op)
	}
	return spec
}

// fuzzSeedOp encodes one op for the seed corpus (same layout fuzzSpec
// decodes).
func fuzzSeedOp(kind, table, col, col2, in, in2, out, out2, pred int) []byte {
	return []byte{
		byte(kind), byte(table), byte(col), byte(col2),
		byte(in), byte(in2), byte(out), byte(out2), byte(pred),
		0, 0, 3, 70,
	}
}

// FuzzPlanBuild feeds arbitrary operator compositions through Compile:
// any input must either yield an executable plan or an error — never a
// panic — and a plan Compile accepts must run to completion without
// tripping the lowering's internal alignment panics, with the same
// results, latency and simulated accesses as its reference lowering
// (refSpec in dense_test.go).
func FuzzPlanBuild(f *testing.F) {
	var q6ish []byte
	q6ish = append(q6ish, fuzzSeedOp(0, 0, 1, 0, 0, 0, 0, 0, 3)...) // scan quantity < 24 -> a
	q6ish = append(q6ish, fuzzSeedOp(1, 0, 0, 0, 0, 0, 1, 0, 1)...) // refine shipdate -> b
	q6ish = append(q6ish, fuzzSeedOp(2, 0, 3, 0, 1, 0, 2, 0, 0)...) // project price -> c
	q6ish = append(q6ish, fuzzSeedOp(2, 0, 2, 0, 1, 0, 3, 0, 0)...) // project discount -> d
	q6ish = append(q6ish, fuzzSeedOp(3, 0, 0, 0, 2, 3, 0, 0, 0)...) // map2 c*d -> a
	q6ish = append(q6ish, fuzzSeedOp(4, 0, 0, 0, 0, 0, 1, 0, 0)...) // sum a -> scalar b
	f.Add(q6ish)

	var join []byte
	join = append(join, fuzzSeedOp(0, 0, 4, 0, 0, 0, 0, 0, 0)...)  // scan-all orderkey -> a
	join = append(join, fuzzSeedOp(2, 0, 4, 0, 0, 0, 1, 0, 0)...)  // project orderkey -> b
	join = append(join, fuzzSeedOp(6, 0, 0, 0, 1, 4, 2, 0, 0)...)  // build b -> set c
	join = append(join, fuzzSeedOp(7, 0, 4, 0, 0, 2, 3, 0, 0)...)  // probe-semi a vs c -> d
	join = append(join, fuzzSeedOp(10, 0, 0, 0, 1, 4, 3, 0, 0)...) // group-sum b -> partials d
	join = append(join, fuzzSeedOp(11, 0, 0, 0, 3, 0, 0, 1, 0)...) // merge d -> a/b
	join = append(join, fuzzSeedOp(13, 0, 0, 0, 0, 1, 0, 0, 0)...) // topn a/b
	join = append(join, fuzzSeedOp(14, 1, 5, 6, 0, 0, 0, 0, 0)...) // lookup tiny.k -> v
	f.Add(join)

	var dense []byte
	dense = append(dense, fuzzSeedOp(0, 0, 4, 0, 0, 0, 0, 0, 0)...) // scan-all orderkey -> a (dense)
	dense = append(dense, fuzzSeedOp(1, 0, 1, 0, 0, 0, 1, 0, 3)...) // refine a, quantity < 24 -> b
	dense = append(dense, fuzzSeedOp(1, 0, 4, 0, 0, 0, 2, 0, 5)...) // refine a, orderkey in list -> c
	dense = append(dense, fuzzSeedOp(2, 0, 3, 0, 0, 0, 3, 0, 0)...) // project a price -> d
	dense = append(dense, fuzzSeedOp(4, 0, 0, 0, 3, 0, 2, 0, 0)...) // sum d -> scalar c
	dense = append(dense, fuzzSeedOp(2, 0, 4, 0, 1, 0, 3, 0, 0)...) // project b orderkey -> d
	dense = append(dense, fuzzSeedOp(6, 0, 0, 0, 3, 4, 2, 0, 0)...) // build d -> set c
	dense = append(dense, fuzzSeedOp(9, 0, 4, 0, 0, 2, 1, 0, 0)...) // probe-anti a vs c -> b
	dense = append(dense, fuzzSeedOp(5, 0, 0, 0, 1, 0, 3, 0, 0)...) // count b -> scalar d
	f.Add(dense)

	f.Add([]byte{})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})

	// Rejected: the fetched payloads would replace the candidates under one
	// name.
	var collide []byte
	collide = append(collide, fuzzSeedOp(0, 0, 4, 0, 0, 0, 0, 0, 0)...) // scan-all orderkey -> a
	collide = append(collide, fuzzSeedOp(2, 0, 4, 0, 0, 0, 1, 0, 0)...) // project orderkey -> b
	collide = append(collide, fuzzSeedOp(6, 0, 0, 0, 1, 1, 2, 0, 0)...) // build b/b -> set c
	collide = append(collide, fuzzSeedOp(8, 0, 4, 0, 0, 2, 3, 3, 0)...) // probe-fetch a vs c -> d/d
	f.Add(collide)

	f.Fuzz(func(t *testing.T, data []byte) {
		spec := fuzzSpec(data)
		if _, err := spec.Compile(newSpecRig(t).store); err != nil {
			return
		}
		build, buildRef := bothWays(spec)
		fast, ref, fastM, refM := runPlanBothWays(t, 512, build, buildRef)
		sameOutcome(t, fast, ref, fastM, refM)
	})
}

// TestPlanSpecString pins the one-line rendering of every operator kind,
// predicate form and map function (tpch's plans.golden is made of these).
func TestPlanSpecString(t *testing.T) {
	spec := PlanSpec{Name: "every-kind", Ops: []OpSpec{
		Scan("t", "k", "c1", PredIRange(2, 6)),
		ScanAll("t", "k", "all"),
		Refine("c1", "t", "g", "c2", PredIEq(1)),
		Refine("c2", "t", "g", "c3", PredINe(3)),
		Refine("c3", "t", "g", "c4", PredIIn(1, 4)),
		Refine("c4", "t", "k", "c5", PredIRange(math.MinInt64, 9)),
		Refine("c5", "t", "k", "c6", PredIRange(1, math.MaxInt64)),
		Refine("c6", "t", "v", "c7", PredFRange(0.5, 2)),
		Refine("c7", "t", "v", "c8", PredFRange(0.5, math.Inf(1))),
		Refine("c8", "t", "v", "c9", PredFLess(7)),
		Project("c9", "t", "v", "a"),
		Map2("a", "a", "sq", MapMul),
		Map2("a", "a", "net", MapMulComplement),
		Sum("sq", "total"),
		Count("c9", "n"),
		Build("keys", "vals", "set"),
		ProbeSemi("all", "t", "k", "set", "hit"),
		ProbeFetch("all", "t", "k", "set", "got", "pay"),
		ProbeAnti("all", "t", "k", "set", "miss"),
		GroupSum("keys", "", "parts"),
		GroupMerge("parts", "gk", "gs"),
		GroupFilter("gk", "gs", 3.5),
		TopN("gk", "gs", 3),
		Lookup("t", "k", "v", 40, "point"),
		{Kind: OpKind(99), Map: MapFn(9), Pred: Pred{}},
		{Kind: OpMap2, Map: MapFn(9)},
		{Kind: OpScan},
	}}
	const want = `every-kind
  scan t.k [2 <= v < 6] -> c1
  scan t.k [true] -> all
  refine c1 t.g [v == 1] -> c2
  refine c2 t.g [v != 3] -> c3
  refine c3 t.g [v in [1 4]] -> c4
  refine c4 t.k [v < 9] -> c5
  refine c5 t.k [v >= 1] -> c6
  refine c6 t.v [0.5 <= v <= 2] -> c7
  refine c7 t.v [v >= 0.5] -> c8
  refine c8 t.v [v < 7] -> c9
  project c9 t.v -> a
  map2 a a x*y -> sq
  map2 a a x*(1-y) -> net
  sum sq -> total
  count c9 -> n
  build keys vals -> set
  probe-semi all set t.k -> hit
  probe-fetch all set t.k -> got pay
  probe-anti all set t.k -> miss
  group-sum keys -> parts
  group-merge parts -> gk gs
  group-filter gk gs [sum > 3.5]
  topn gk gs n=3
  lookup t.k key=40 v -> point
  opkind(99)
  map2 mapfn(9)
  scan [none]
`
	if got := spec.String(); got != want {
		t.Errorf("plan text drifted\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLifetimes pins where Lower says each value dies: at its last reader
// (bit 0 or 1, the read ref it comes through) — also when a later step
// writes its name again, or the step itself rewrites it — or, written and
// never read, at the step that overwrites it (bit 2 or 3); a value no later
// step reads is a result (bit 4 or 5, the write ref that produced it). A
// projection that only Map2, Sum, GroupSum or Count read is a view
// (viewBit), and the candidate list under it dies at the last read of the
// list or of a view over it (bit 6 or 7, the read ref of that view), even
// when its name is written again in between. Run on an engine, the plan
// leaves exactly its results bound.
func TestLifetimes(t *testing.T) {
	ops := []OpSpec{
		Scan("t", "k", "a", PredIRange(0, 6)),  // 0
		Project("a", "t", "v", "v"),            // 1: a view, over the first a
		Scan("t", "k", "a", PredIRange(2, 8)),  // 2: a is written again
		Scan("t", "k", "dead", PredIEq(3)),     // 3
		Scan("t", "k", "dead", PredIEq(4)),     // 4: overwrites dead unread
		Map2("v", "v", "w", MapMul),            // 5: v dies, read last through In2, and the first a under it
		Sum("w", "s"),                          // 6: w dies
		Build("a", "", "set"),                  // 7
		ProbeSemi("a", "t", "k", "set", "hit"), // 8: a and the set die
		Project("hit", "t", "k", "keys"),       // 9: a view, over hit
		GroupSum("keys", "", "parts"),          // 10: keys die, and hit under them
		GroupMerge("parts", "gk", "gs"),        // 11: the partials die
		GroupFilter("gk", "gs", 0),             // 12: the merged pair dies, rewritten
	}
	want := []uint16{0, viewBit, 0, 0, 0b010100, 0b10000010, 0b0001, 0, 0b0011, viewBit, 0b1000001, 0b0001, 0b110011}
	if got := lower("lifetimes", ops...).dies; !reflect.DeepEqual(got, want) {
		t.Errorf("death masks %09b, want %09b", got, want)
	}
	q := newOpRig(t).exec(t, ops...)
	var bound []string
	for name := range q.vars {
		bound = append(bound, name)
	}
	slices.Sort(bound)
	if !slices.Equal(bound, []string{"dead", "gk", "gs"}) || len(q.sets)+len(q.partials) != 0 {
		t.Errorf("the finished query holds variables %v, %d sets and %d partials; want the results dead, gk and gs alone",
			bound, len(q.sets), len(q.partials))
	}
	if q.Scalar("s") == 0 || q.Var("gk").Rows() == 0 {
		t.Fatal("the plan computed nothing")
	}
}
