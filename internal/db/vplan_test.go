package db

import (
	"math"
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

// q6Spec is the handwritten q6Plan expressed declaratively.
func q6Spec() PlanSpec {
	return NewPlanSpec("Q6-spec").
		Scan("lineitem", "l_quantity", "X_1", PredFLess(24)).
		Refine("X_1", "lineitem", "l_shipdate", "X_2", PredIRange(19970101, 19980101)).
		Refine("X_2", "lineitem", "l_discount", "X_3", PredFRange(0.06, 0.08)).
		Project("X_3", "lineitem", "l_extendedprice", "X_4").
		Project("X_3", "lineitem", "l_discount", "X_5").
		Map2("X_4", "X_5", "X_6", func(x, y float64) float64 { return x * y }).
		Sum("X_6", "revenue").
		Spec()
}

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
	spec := NewPlanSpec("join-group").
		Scan("lineitem", "l_extendedprice", "cheap", PredFLess(300)).
		Project("cheap", "lineitem", "l_orderkey", "keys").
		Build("keys", "", "orders-seen").
		ScanAll("lineitem", "l_orderkey", "all").
		ProbeSemi("all", "lineitem", "l_orderkey", "orders-seen", "hit").
		Project("hit", "lineitem", "l_orderkey", "hitkeys").
		GroupSum("hitkeys", "", "parts").
		GroupMerge("parts", "gk", "gs").
		GroupFilter("gk", "gs", func(sum float64) bool { return sum >= 4 }).
		TopN("gk", "gs", 5).
		Count("gk", "groups").
		Lookup("tiny", "k", "v", 40, "point").
		Spec()
	plan, err := spec.Compile(r.store)
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

func TestPlanSpecCompileRejects(t *testing.T) {
	mul := func(x, y float64) float64 { return x * y }
	cases := []struct {
		name string
		spec PlanSpec
		want string
	}{
		{"unknown table", NewPlanSpec("t").Scan("ghost", "c", "a", PredAll()).Spec(), "unknown table"},
		{"unknown column", NewPlanSpec("t").Scan("lineitem", "nope", "a", PredAll()).Spec(), "no column"},
		{"pred kind mismatch", NewPlanSpec("t").Scan("lineitem", "l_shipdate", "a", PredFLess(1)).Spec(), "integer predicate"},
		{"missing scan out", NewPlanSpec("t").Scan("lineitem", "l_shipdate", "", PredIEq(1)).Spec(), "missing output"},
		{"undefined refine input", NewPlanSpec("t").Refine("a", "lineitem", "l_shipdate", "b", PredIEq(1)).Spec(), "undefined variable"},
		{"cross-table candidates", NewPlanSpec("t").
			ScanAll("tiny", "k", "a").
			Project("a", "lineitem", "l_discount", "b").Spec(), "indexes table"},
		{"misaligned map2", NewPlanSpec("t").
			ScanAll("lineitem", "l_orderkey", "a").
			ScanAll("lineitem", "l_orderkey", "b").
			Project("a", "lineitem", "l_discount", "x").
			Project("b", "lineitem", "l_discount", "y").
			Map2("x", "y", "z", mul).Spec(), "not aligned"},
		{"map2 over candidate", NewPlanSpec("t").
			ScanAll("lineitem", "l_orderkey", "a").
			Map2("a", "a", "z", mul).Spec(), "not a value vector"},
		{"missing map fn", PlanSpec{Name: "t", Ops: []OpSpec{
			{Kind: OpScan, Table: "lineitem", Col: "l_orderkey", Out: "a", Pred: PredAll()},
			{Kind: OpProject, Table: "lineitem", Col: "l_discount", In: "a", Out: "x"},
			{Kind: OpMap2, In: "x", In2: "x", Out: "z"},
		}}, "missing map function"},
		{"sum over i64", NewPlanSpec("t").
			ScanAll("lineitem", "l_orderkey", "a").
			Project("a", "lineitem", "l_orderkey", "x").
			Sum("x", "s").Spec(), "wrong value kind"},
		{"probe float column", NewPlanSpec("t").
			ScanAll("lineitem", "l_orderkey", "a").
			Project("a", "lineitem", "l_orderkey", "x").
			Build("x", "", "set").
			ProbeSemi("a", "lineitem", "l_discount", "set", "b").Spec(), "must be integer"},
		{"undefined set", NewPlanSpec("t").
			ScanAll("lineitem", "l_orderkey", "a").
			ProbeSemi("a", "lineitem", "l_orderkey", "set", "b").Spec(), "undefined set"},
		{"undefined partials", NewPlanSpec("t").GroupMerge("p", "k", "s").Spec(), "undefined partials"},
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
		{"lookup float key", NewPlanSpec("t").Lookup("tiny", "v", "k", 3, "out").Spec(), "must be integer"},
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
		{}, // typeless: invalid against every column
		{I: func(v int64) bool { return v%2 == 0 }},
		{F: func(v float64) bool { return v > 1 }},
	}
)

// fuzzSpecOpBytes is the fixed byte budget of one decoded OpSpec.
const fuzzSpecOpBytes = 13

// fuzzSpec decodes raw fuzz bytes into a PlanSpec: every op consumes a
// fixed window of bytes indexing the pools above, so any input maps to a
// structurally arbitrary — frequently invalid — composition.
func fuzzSpec(data []byte) PlanSpec {
	spec := PlanSpec{Name: "fuzz"}
	mul := func(x, y float64) float64 { return x * y }
	keep := func(sum float64) bool { return sum >= 2 }
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
			N:     int(int8(w[11])),
			Key:   int64(w[12]) - 64,
		}
		if w[9]%2 == 0 {
			op.Map = mul
		}
		if w[10]%2 == 0 {
			op.Keep = keep
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
// tripping the stage builders' internal alignment panics, with the same
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

	f.Fuzz(func(t *testing.T, data []byte) {
		spec := fuzzSpec(data)
		if _, err := spec.Compile(newSpecRig(t).store); err != nil {
			return
		}
		fast, ref, fastM, refM := runPlanBothWays(t, 512, spec.Compile, refSpec(spec).Compile)
		sameOutcome(t, fast, ref, fastM, refM)
	})
}
