package tpch

import (
	"fmt"
	"math"
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// queries_ref_test.go validates more query plans against independent
// straight-line reference implementations over the generated data.

func TestQ4AgainstReference(t *testing.T) {
	r := newQRig(t, 0.002)
	seed := uint64(6)
	q := r.exec(t, Build(4, seed))

	rr := newRNG(seed ^ 4)
	y := pYear(rr)
	m := int64(1 + 3*rr.intn(4))
	lo, hi := y*10000+m*100, y*10000+(m+3)*100

	li := r.store.Table("lineitem")
	orders := r.store.Table("orders")
	lateOrders := map[int64]bool{}
	for i := 0; i < li.Rows; i++ {
		if li.Col("l_late").I[i] == 1 {
			lateOrders[li.Col("l_orderkey").I[i]] = true
		}
	}
	want := map[int64]float64{}
	for i := 0; i < orders.Rows; i++ {
		d := orders.Col("o_orderdate").I[i]
		if d >= lo && d < hi && lateOrders[orders.Col("o_orderkey").I[i]] {
			want[orders.Col("o_orderpriority").I[i]]++
		}
	}
	gk := q.Var("gk").FlattenI64()
	gs := q.Var("gs").FlattenF64()
	if len(gk) != len(want) {
		t.Fatalf("Q4 groups = %d, want %d", len(gk), len(want))
	}
	for i, k := range gk {
		if gs[i] != want[k] {
			t.Errorf("priority %d count = %g, want %g", k, gs[i], want[k])
		}
	}
}

func TestQ12AgainstReference(t *testing.T) {
	r := newQRig(t, 0.002)
	seed := uint64(2)
	q := r.exec(t, Build(12, seed))

	rr := newRNG(seed ^ 12)
	y := pYear(rr)
	m1 := int64(rr.intn(NumShipModes))
	m2 := (m1 + 1) % NumShipModes

	li := r.store.Table("lineitem")
	want := map[int64]float64{}
	for i := 0; i < li.Rows; i++ {
		mode := li.Col("l_shipmode").I[i]
		if mode != m1 && mode != m2 {
			continue
		}
		rd := li.Col("l_receiptdate").I[i]
		if rd < y*10000 || rd >= (y+1)*10000 {
			continue
		}
		if li.Col("l_late").I[i] != 1 {
			continue
		}
		want[mode]++
	}
	gk := q.Var("gk").FlattenI64()
	gs := q.Var("gs").FlattenF64()
	if len(gk) != len(want) {
		t.Fatalf("Q12 groups = %d, want %d (%v)", len(gk), len(want), want)
	}
	for i, k := range gk {
		if gs[i] != want[k] {
			t.Errorf("mode %d count = %g, want %g", k, gs[i], want[k])
		}
	}
}

func TestQ17AgainstReference(t *testing.T) {
	r := newQRig(t, 0.005)
	seed := uint64(13)
	q := r.exec(t, Build(17, seed))

	rr := newRNG(seed ^ 17)
	brand := int64(rr.intn(NumBrands))
	container := int64(rr.intn(NumContainers))

	part := r.store.Table("part")
	pset := map[int64]bool{}
	for i := 0; i < part.Rows; i++ {
		if part.Col("p_brand").I[i] == brand && part.Col("p_container").I[i] == container {
			pset[part.Col("p_partkey").I[i]] = true
		}
	}
	li := r.store.Table("lineitem")
	var want float64
	for i := 0; i < li.Rows; i++ {
		if pset[li.Col("l_partkey").I[i]] && li.Col("l_quantity").F[i] < 10 {
			want += li.Col("l_extendedprice").F[i]
		}
	}
	got := q.Scalar("result")
	if math.Abs(got-want) > 1e-6*math.Abs(want)+1e-9 {
		t.Errorf("Q17 = %g, want %g", got, want)
	}
}

func TestQ19AgainstReference(t *testing.T) {
	r := newQRig(t, 0.005)
	seed := uint64(8)
	q := r.exec(t, Build(19, seed))

	rr := newRNG(seed ^ 19)
	b1 := int64(rr.intn(NumBrands))
	c1 := int64(rr.intn(NumContainers - 4))
	qlo := float64(1 + rr.intn(10))
	brands := map[int64]bool{b1: true, (b1 + 5) % NumBrands: true, (b1 + 10) % NumBrands: true}
	containers := map[int64]bool{c1: true, c1 + 1: true, c1 + 2: true, c1 + 3: true}

	part := r.store.Table("part")
	pset := map[int64]bool{}
	for i := 0; i < part.Rows; i++ {
		if brands[part.Col("p_brand").I[i]] && containers[part.Col("p_container").I[i]] {
			pset[part.Col("p_partkey").I[i]] = true
		}
	}
	li := r.store.Table("lineitem")
	var want float64
	for i := 0; i < li.Rows; i++ {
		mode := li.Col("l_shipmode").I[i]
		if mode != 0 && mode != 1 {
			continue
		}
		if li.Col("l_shipinstruct").I[i] != 0 {
			continue
		}
		if !pset[li.Col("l_partkey").I[i]] {
			continue
		}
		qty := li.Col("l_quantity").F[i]
		if qty < qlo || qty > qlo+30 {
			continue
		}
		want += li.Col("l_extendedprice").F[i] * (1 - li.Col("l_discount").F[i])
	}
	got := q.Scalar("result")
	if math.Abs(got-want) > 1e-6*math.Abs(want)+1e-9 {
		t.Errorf("Q19 = %g, want %g", got, want)
	}
}

func TestQ22AgainstReference(t *testing.T) {
	r := newQRig(t, 0.002)
	seed := uint64(4)
	q := r.exec(t, Build(22, seed))

	rr := newRNG(seed ^ 22)
	n1 := int64(rr.intn(NumNations - 7))
	nations := map[int64]bool{}
	for k := int64(0); k < 7; k++ {
		nations[n1+k] = true
	}
	cust := r.store.Table("customer")
	orders := r.store.Table("orders")
	has := map[int64]bool{}
	for _, ck := range orders.Col("o_custkey").I {
		has[ck] = true
	}
	want := map[int64]float64{}
	for i := 0; i < cust.Rows; i++ {
		nk := cust.Col("c_nationkey").I[i]
		if !nations[nk] || has[cust.Col("c_custkey").I[i]] {
			continue
		}
		want[nk] += cust.Col("c_acctbal").F[i]
	}
	gk := q.Var("gk").FlattenI64()
	gs := q.Var("gs").FlattenF64()
	if len(gk) != len(want) {
		t.Fatalf("Q22 groups = %d, want %d", len(gk), len(want))
	}
	for i, k := range gk {
		if math.Abs(gs[i]-want[k]) > 1e-6*math.Abs(want[k])+1e-9 {
			t.Errorf("nation %d balance = %g, want %g", k, gs[i], want[k])
		}
	}
}

func TestQ20AgainstReference(t *testing.T) {
	r := newQRig(t, 0.005)
	seed := uint64(15)
	q := r.exec(t, Build(20, seed))

	rr := newRNG(seed ^ 20)
	nation := int64(rr.intn(NumNations))
	typ := int64(rr.intn(NumTypes / 2))

	part := r.store.Table("part")
	pset := map[int64]bool{}
	for i := 0; i < part.Rows; i++ {
		tp := part.Col("p_type").I[i]
		if tp >= typ && tp < typ+15 {
			pset[part.Col("p_partkey").I[i]] = true
		}
	}
	ps := r.store.Table("partsupp")
	surplus := map[int64]bool{}
	for i := 0; i < ps.Rows; i++ {
		if pset[ps.Col("ps_partkey").I[i]] && ps.Col("ps_availqty").F[i] > 5000 {
			surplus[ps.Col("ps_suppkey").I[i]] = true
		}
	}
	sup := r.store.Table("supplier")
	want := 0.0
	for i := 0; i < sup.Rows; i++ {
		if sup.Col("s_nationkey").I[i] == nation && surplus[sup.Col("s_suppkey").I[i]] {
			want++
		}
	}
	if got := q.Scalar("result"); got != want {
		t.Errorf("Q20 = %g, want %g", got, want)
	}
}

// TestRewrittenPredicatesAtTheirBounds pins the predicates that were
// closures and are now forms (PredFLess, PredIRange, the one-sided
// intBelow/intAbove/floatAbove, PredINe and the nationsOf IN list) where a
// slipped bound would show: each scan's column is given rows exactly at the
// bound and one step to either side of it — for nationsOf, every nation
// key, under every region — and the candidate list the query's scan
// produces must be the rows the original closure keeps — the bound row
// included, or left out, as the closure says.
func TestRewrittenPredicatesAtTheirBounds(t *testing.T) {
	m := numa.NewMachine(numa.Opteron8387())
	store := db.NewStore(m)
	// A private dataset: the rows planted below must not reach the cache.
	if _, err := Load(store, Config{SF: 0.002, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	sc := sched.New(m, sched.Config{})
	eng, err := db.NewEngine(store, db.Config{Scheduler: sc, PID: 100})
	if err != nil {
		t.Fatal(err)
	}
	r := &qrig{machine: m, sched: sc, store: store, eng: eng}

	const seed = 11
	q1Cutoff := EncodeDate(1998, 9, 1) - int64(newRNG(seed^1).intn(60))
	r3 := newRNG(seed ^ 3)
	r3.intn(NumMktSegments)
	q3Cut := EncodeDate(1995, 3, 1) + int64(r3.intn(28))
	q6 := Q6ParamsFromSeed(seed)
	r20 := newRNG(seed ^ 20)
	r20.intn(NumNations)
	q20Typ := int64(r20.intn(NumTypes / 2))
	q6Compiled, err := q6With(q6).Compile(store)
	if err != nil {
		t.Fatal(err)
	}
	// Q17 refines the lineitems of one brand and container, Q20 the partsupp
	// rows of one part family: take the first seed whose pick exists at this
	// scale.
	seedWith := func(n int, in string) uint64 {
		for seed := uint64(0); seed <= 5000; seed++ {
			if r.exec(t, through(Build(n, seed), in)).Var(in).Rows() >= 8 {
				return seed
			}
		}
		t.Fatalf("no Q%d seed leaves 8 rows in %s", n, in)
		return 0
	}
	q17Seed, q20Seed := seedWith(17, "cl2"), seedWith(20, "c2")
	q16Brand := int64(newRNG(seed ^ 16).intn(NumBrands))
	r8 := newRNG(seed ^ 8)
	r8.intn(NumTypes)
	q8Region := int64(r8.intn(NumRegions))
	above5000 := math.Nextafter(5000, math.Inf(1))

	type boundCase struct {
		name       string
		plan       *db.Plan
		in, out    string // candidate variables: in == "" is a full scan
		table, col string
		keepI      func(v int64) bool
		keepF      func(v float64) bool
		plantI     []int64 // values written into the scanned rows before the run
		plantF     []float64
	}
	cases := []boundCase{
		{name: "Q1 l_shipdate <= cutoff", plan: Build(1, seed), out: "c1", table: "lineitem", col: "l_shipdate",
			keepI: func(v int64) bool { return v <= q1Cutoff }, plantI: []int64{q1Cutoff, q1Cutoff + 1, q1Cutoff - 1}},
		{name: "Q3 o_orderdate < cut", plan: Build(3, seed), out: "co", table: "orders", col: "o_orderdate",
			keepI: func(v int64) bool { return v < q3Cut }, plantI: []int64{q3Cut, q3Cut - 1, q3Cut + 1}},
		{name: "Q3 l_shipdate > cut", plan: Build(3, seed), out: "cl", table: "lineitem", col: "l_shipdate",
			keepI: func(v int64) bool { return v > q3Cut }, plantI: []int64{q3Cut, q3Cut + 1, q3Cut - 1}},
		{name: "Q6 l_quantity < Quantity", plan: BuildQ6With(q6), out: "X_1", table: "lineitem", col: "l_quantity",
			keepF: func(v float64) bool { return v < q6.Quantity }, plantF: []float64{q6.Quantity, q6.Quantity - 1, q6.Quantity + 1}},
		{name: "Q6 compiled l_quantity < Quantity", plan: q6Compiled, out: "X_1", table: "lineitem", col: "l_quantity",
			keepF: func(v float64) bool { return v < q6.Quantity }, plantF: []float64{q6.Quantity, q6.Quantity - 1, q6.Quantity + 1}},
		{name: "Q14 p_type < 25", plan: Build(14, seed), out: "cp", table: "part", col: "p_type",
			keepI: func(v int64) bool { return v < 25 }, plantI: []int64{25, 24, 26}},
		{name: "Q16 s_acctbal < 0", plan: Build(16, seed), out: "csupp", table: "supplier", col: "s_acctbal",
			keepF: func(v float64) bool { return v < 0 }, plantF: []float64{0, -0.01, 0.01}},
		{name: "Q17 l_quantity < 10", plan: Build(17, q17Seed), in: "cl2", out: "cl3", table: "lineitem", col: "l_quantity",
			keepF: func(v float64) bool { return v < 10 }, plantF: []float64{10, 9, 11}},
		{name: "Q20 typ <= p_type < typ+15", plan: Build(20, seed), out: "cp", table: "part", col: "p_type",
			keepI:  func(v int64) bool { return v >= q20Typ && v < q20Typ+15 },
			plantI: []int64{q20Typ, q20Typ + 15, q20Typ + 14, q20Typ - 1}},
		{name: "Q16 p_brand != brand", plan: Build(16, seed), out: "cp", table: "part", col: "p_brand",
			keepI: func(v int64) bool { return v != q16Brand }, plantI: []int64{q16Brand, q16Brand - 1, q16Brand + 1}},
		{name: "Q20 ps_availqty > 5000", plan: Build(20, q20Seed), in: "c2", out: "c3", table: "partsupp", col: "ps_availqty",
			keepF: func(v float64) bool { return v > 5000 }, plantF: []float64{5000, above5000, 5000.5}},
		// The supplier table is short at this scale: the edges of the key
		// range and of the region's list, and a neighbour to either side.
		{name: "Q8 s_nationkey in region", plan: Build(8, seed), out: "cs", table: "supplier", col: "s_nationkey",
			keepI: func(v int64) bool { return v%NumRegions == q8Region },
			plantI: []int64{q8Region, q8Region + 4*NumRegions, q8Region + 1, (q8Region + NumRegions - 1) % NumRegions,
				0, NumNations - 1, q8Region + 2*NumRegions}},
	}
	// Q5 under every region, over every nation key.
	allNations := make([]int64, NumNations)
	for k := range allNations {
		allNations[k] = int64(k)
	}
	for region := int64(0); region < NumRegions; region++ {
		q5Seed := uint64(0)
		for int64(newRNG(q5Seed^5).intn(NumRegions)) != region {
			q5Seed++
		}
		cases = append(cases, boundCase{
			name: fmt.Sprintf("Q5 c_nationkey in region %d", region), plan: Build(5, q5Seed),
			out: "cc", table: "customer", col: "c_nationkey",
			keepI:  func(v int64) bool { return v%NumRegions == region },
			plantI: append([]int64{region}, allNations...),
		})
	}
	for _, tc := range cases {
		c := store.Table(tc.table).Col(tc.col)
		// The rows the scan reads: the whole column, or the candidates the
		// stage before it produced (they do not depend on this column).
		var rows []int64
		if tc.in == "" {
			for i := 0; i < store.Table(tc.table).Rows; i++ {
				rows = append(rows, int64(i))
			}
		} else {
			rows = r.exec(t, through(tc.plan, tc.in)).Var(tc.in).FlattenI64()
		}
		if len(rows) < 8 {
			t.Fatalf("%s: only %d rows to scan", tc.name, len(rows))
		}
		atBound := 0
		for i, v := range tc.plantI {
			c.I[rows[2*i+1]] = v
		}
		for i, v := range tc.plantF {
			c.F[rows[2*i+1]] = v
		}
		var want []int64
		for _, row := range rows {
			if (tc.keepI != nil && tc.keepI(c.I[row])) || (tc.keepF != nil && tc.keepF(c.F[row])) {
				want = append(want, row)
			}
			if (tc.keepI != nil && c.I[row] == tc.plantI[0]) || (tc.keepF != nil && c.F[row] == tc.plantF[0]) {
				atBound++
			}
		}
		got := r.exec(t, through(tc.plan, tc.out)).Var(tc.out).FlattenI64()
		if atBound == 0 || len(want) == 0 || len(want) == len(rows) {
			t.Fatalf("%s: %d rows at the bound, %d of %d kept: the case pins nothing", tc.name, atBound, len(want), len(rows))
		}
		if len(got) != len(want) {
			t.Fatalf("%s: the scan kept %d rows, the closure keeps %d", tc.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: candidate %d is row %d, the closure's is row %d", tc.name, i, got[i], want[i])
			}
		}
	}
}

// through lowers the steps of p up to and including the first that writes
// the candidate list name: run alone, they leave it bound as a result,
// where the whole query refines it further and lets it die.
func through(p *db.Plan, name string) *db.Plan {
	for i, op := range p.Ops {
		if op.Out == name || op.Out2 == name {
			return db.PlanSpec{Name: p.Name, Ops: p.Ops[:i+1]}.Lower()
		}
	}
	panic("tpch: no step of " + p.Name + " writes " + name)
}

// revenueBy sums l_extendedprice * (1 - l_discount) per key(i) over the
// lineitem rows keep admits.
func revenueBy(li *db.Table, keep func(i int) bool, key func(i int) int64) map[int64]float64 {
	price, disc := li.Col("l_extendedprice").F, li.Col("l_discount").F
	want := map[int64]float64{}
	for i := 0; i < li.Rows; i++ {
		if keep(i) {
			want[key(i)] += price[i] * (1 - disc[i])
		}
	}
	return want
}

// checkGroups compares a query's merged groups with a reference map: every
// group present once, keys ascending, sums within rounding of the reference.
func checkGroups(t *testing.T, q *db.Query, want map[int64]float64) {
	t.Helper()
	gk, gs := q.Var("gk").FlattenI64(), q.Var("gs").FlattenF64()
	if len(want) == 0 {
		t.Fatal("the reference has no groups: the case pins nothing")
	}
	if len(gk) != len(want) {
		t.Fatalf("%s groups = %d, want %d", q.Plan.Name, len(gk), len(want))
	}
	for i, k := range gk {
		if i > 0 && gk[i-1] >= k {
			t.Errorf("group keys not ascending at %d: %d then %d", i, gk[i-1], k)
		}
		if w, ok := want[k]; !ok || math.Abs(gs[i]-w) > 1e-6*math.Abs(w)+1e-9 {
			t.Errorf("group %d sum = %g, want %g (present %v)", k, gs[i], w, ok)
		}
	}
}

// checkTopGroups compares a query's top-n groups with a reference map: n of
// them, sums descending and within rounding of the reference, and no group
// left out that beats the last one kept.
func checkTopGroups(t *testing.T, q *db.Query, want map[int64]float64, n int) {
	t.Helper()
	gk, gs := q.Var("gk").FlattenI64(), q.Var("gs").FlattenF64()
	if len(want) <= n {
		t.Fatalf("the reference has %d groups, no more than the %d kept: the case pins nothing", len(want), n)
	}
	if len(gk) != n {
		t.Fatalf("%s kept %d groups, want %d", q.Plan.Name, len(gk), n)
	}
	kept := map[int64]bool{}
	for i, k := range gk {
		if w, ok := want[k]; !ok || kept[k] || math.Abs(gs[i]-w) > 1e-6*math.Abs(w)+1e-9 {
			t.Errorf("group %d sum = %g, want %g (present %v, repeated %v)", k, gs[i], w, ok, kept[k])
		}
		if i > 0 && gs[i] > gs[i-1] {
			t.Errorf("sums not descending at %d: %g then %g", i, gs[i-1], gs[i])
		}
		kept[k] = true
	}
	last := gs[len(gs)-1]
	for k, w := range want {
		if !kept[k] && w > last+1e-6*math.Abs(last) {
			t.Errorf("group %d (sum %g) was left out though it beats the last kept (%g)", k, w, last)
		}
	}
}

func TestQ5AgainstReference(t *testing.T) {
	r := newQRig(t, 0.01)
	seed := uint64(3)
	q := r.exec(t, Build(5, seed))

	rr := newRNG(seed ^ 5)
	region := int64(rr.intn(NumRegions))
	y := pYear(rr)

	cust, orders, li := r.store.Table("customer"), r.store.Table("orders"), r.store.Table("lineitem")
	cset := map[int64]bool{}
	for i := 0; i < cust.Rows; i++ {
		if cust.Col("c_nationkey").I[i]%NumRegions == region {
			cset[cust.Col("c_custkey").I[i]] = true
		}
	}
	oset := map[int64]bool{}
	for i := 0; i < orders.Rows; i++ {
		if d := orders.Col("o_orderdate").I[i]; d >= y*10000 && d < (y+1)*10000 && cset[orders.Col("o_custkey").I[i]] {
			oset[orders.Col("o_orderkey").I[i]] = true
		}
	}
	want := revenueBy(li,
		func(i int) bool { return oset[li.Col("l_orderkey").I[i]] },
		func(i int) int64 { return li.Col("l_suppkey").I[i] })
	checkTopGroups(t, q, want, 10)
}

func TestQ8AgainstReference(t *testing.T) {
	r := newQRig(t, 0.01)
	seed := uint64(2)
	q := r.exec(t, Build(8, seed))

	rr := newRNG(seed ^ 8)
	typ := int64(rr.intn(NumTypes))
	region := int64(rr.intn(NumRegions))

	part, sup := r.store.Table("part"), r.store.Table("supplier")
	orders, li := r.store.Table("orders"), r.store.Table("lineitem")
	pset, sset, oset := map[int64]bool{}, map[int64]bool{}, map[int64]bool{}
	for i := 0; i < part.Rows; i++ {
		if part.Col("p_type").I[i] == typ {
			pset[part.Col("p_partkey").I[i]] = true
		}
	}
	for i := 0; i < sup.Rows; i++ {
		if sup.Col("s_nationkey").I[i]%NumRegions == region {
			sset[sup.Col("s_suppkey").I[i]] = true
		}
	}
	for i := 0; i < orders.Rows; i++ {
		if d := orders.Col("o_orderdate").I[i]; d >= EncodeDate(1995, 1, 1) && d < EncodeDate(1997, 1, 1) {
			oset[orders.Col("o_orderkey").I[i]] = true
		}
	}
	want := revenueBy(li,
		func(i int) bool {
			return pset[li.Col("l_partkey").I[i]] && sset[li.Col("l_suppkey").I[i]] && oset[li.Col("l_orderkey").I[i]]
		},
		func(i int) int64 { return li.Col("l_shipyear").I[i] })
	checkGroups(t, q, want)
}

func TestQ16AgainstReference(t *testing.T) {
	r := newQRig(t, 0.02) // more suppliers than the 100 groups kept
	seed := uint64(5)
	q := r.exec(t, Build(16, seed))

	rr := newRNG(seed ^ 16)
	brand := int64(rr.intn(NumBrands))
	s1 := int64(1 + rr.intn(45))

	part, sup, ps := r.store.Table("part"), r.store.Table("supplier"), r.store.Table("partsupp")
	pset, bad := map[int64]bool{}, map[int64]bool{}
	for i := 0; i < part.Rows; i++ {
		if size := part.Col("p_size").I[i]; part.Col("p_brand").I[i] != brand && size >= s1 && size <= s1+4 {
			pset[part.Col("p_partkey").I[i]] = true
		}
	}
	for i := 0; i < sup.Rows; i++ {
		if sup.Col("s_acctbal").F[i] < 0 {
			bad[sup.Col("s_suppkey").I[i]] = true
		}
	}
	want := map[int64]float64{}
	for i := 0; i < ps.Rows; i++ {
		if sk := ps.Col("ps_suppkey").I[i]; pset[ps.Col("ps_partkey").I[i]] && !bad[sk] {
			want[sk]++
		}
	}
	if len(bad) == 0 {
		t.Fatal("no supplier has a negative balance: the anti-join pins nothing")
	}
	checkTopGroups(t, q, want, 100)
}
