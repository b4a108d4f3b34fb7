package tpch

import (
	"math"
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// qrig is a full execution rig: machine, scheduler, loaded store, engine.
type qrig struct {
	machine *numa.Machine
	sched   *sched.Scheduler
	store   *db.Store
	eng     *db.Engine
}

func newQRig(t *testing.T, sf float64) *qrig {
	t.Helper()
	m := numa.NewMachine(numa.Opteron8387())
	// The 1 ms quantum queries.golden was recorded at.
	sc := sched.New(m, sched.Config{Quantum: m.Topology().SecondsToCycles(1e-3)})
	store := db.NewStore(m)
	if _, err := Load(store, Config{SF: sf}); err != nil {
		t.Fatal(err)
	}
	eng, err := db.NewEngine(store, db.Config{Scheduler: sc, PID: 100})
	if err != nil {
		t.Fatal(err)
	}
	return &qrig{machine: m, sched: sc, store: store, eng: eng}
}

func (r *qrig) exec(t *testing.T, p *db.Plan) *db.Query {
	t.Helper()
	q := r.eng.Submit(p)
	if !r.sched.RunUntil(q.Done, r.machine.Topology().SecondsToCycles(600)) {
		t.Fatalf("%s did not finish", p.Name)
	}
	return q
}

func TestAllQueriesComplete(t *testing.T) {
	r := newQRig(t, 0.002)
	for n := 1; n <= QueryCount; n++ {
		q := r.exec(t, Build(n, 7))
		hasGroups := q.Done() && func() bool {
			defer func() { recover() }()
			return q.Var("gk") != nil
		}()
		hasScalar := q.Scalar("result") != 0
		if !hasGroups && !hasScalar && n != 20 {
			// Q20 may legitimately count zero suppliers at tiny SF; any
			// other query must produce groups or a scalar.
			t.Errorf("Q%d produced no observable result", n)
		}
	}
}

func TestAllQueriesDeterministic(t *testing.T) {
	run := func() []float64 {
		r := newQRig(t, 0.002)
		var out []float64
		for n := 1; n <= QueryCount; n++ {
			q := r.exec(t, Build(n, 11))
			out = append(out, q.Scalar("result"), q.Scalar("total"))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs across identical runs: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestQ6AgainstReference(t *testing.T) {
	r := newQRig(t, 0.005)
	p := Q6ParamsFromSeed(3)
	q := r.exec(t, BuildQ6With(p))

	li := r.store.Table("lineitem")
	sd, qty := li.Col("l_shipdate").I, li.Col("l_quantity").F
	dis, pr := li.Col("l_discount").F, li.Col("l_extendedprice").F
	var want float64
	lo, hi := p.Year*10000+101, (p.Year+1)*10000+101
	for i := 0; i < li.Rows; i++ {
		if sd[i] >= lo && sd[i] < hi &&
			dis[i] >= p.Discount-0.01 && dis[i] <= p.Discount+0.01 &&
			qty[i] < p.Quantity {
			want += pr[i] * dis[i]
		}
	}
	if want == 0 {
		t.Fatal("reference is zero; selectivity knobs broken")
	}
	got := q.Scalar("result")
	if math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Errorf("Q6 = %g, want %g", got, want)
	}
}

func TestQ1AgainstReference(t *testing.T) {
	r := newQRig(t, 0.002)
	q := r.exec(t, Build(1, 5))

	// Recompute the grouped sums directly.
	rr := newRNG(uint64(5) ^ 1)
	cutoff := EncodeDate(1998, 9, 1) - int64(rr.intn(60))
	li := r.store.Table("lineitem")
	want := map[int64]float64{}
	for i := 0; i < li.Rows; i++ {
		if li.Col("l_shipdate").I[i] <= cutoff {
			want[li.Col("l_rfls").I[i]] += li.Col("l_extendedprice").F[i]
		}
	}
	gk := q.Var("gk").FlattenI64()
	gs := q.Var("gs").FlattenF64()
	if len(gk) != len(want) {
		t.Fatalf("Q1 groups = %d, want %d", len(gk), len(want))
	}
	for i, k := range gk {
		if math.Abs(gs[i]-want[k]) > 1e-6*math.Abs(want[k]) {
			t.Errorf("group %d sum = %g, want %g", k, gs[i], want[k])
		}
	}
}

func TestQ14AgainstReference(t *testing.T) {
	r := newQRig(t, 0.005)
	seed := uint64(9)
	q := r.exec(t, Build(14, seed))

	rr := newRNG(seed ^ 14)
	y := pYear(rr)
	m := int64(1 + rr.intn(12))
	lo, hi := y*10000+m*100, y*10000+(m+1)*100

	li := r.store.Table("lineitem")
	part := r.store.Table("part")
	promo := map[int64]bool{}
	for i := 0; i < part.Rows; i++ {
		if part.Col("p_type").I[i] < 25 {
			promo[part.Col("p_partkey").I[i]] = true
		}
	}
	var wantTotal, wantPromo float64
	for i := 0; i < li.Rows; i++ {
		sdv := li.Col("l_shipdate").I[i]
		if sdv < lo || sdv >= hi {
			continue
		}
		rev := li.Col("l_extendedprice").F[i] * (1 - li.Col("l_discount").F[i])
		wantTotal += rev
		if promo[li.Col("l_partkey").I[i]] {
			wantPromo += rev
		}
	}
	if math.Abs(q.Scalar("total")-wantTotal) > 1e-6*math.Abs(wantTotal)+1e-9 {
		t.Errorf("Q14 total = %g, want %g", q.Scalar("total"), wantTotal)
	}
	if math.Abs(q.Scalar("result")-wantPromo) > 1e-6*math.Abs(wantPromo)+1e-9 {
		t.Errorf("Q14 promo = %g, want %g", q.Scalar("result"), wantPromo)
	}
}

func TestQ13AgainstReference(t *testing.T) {
	r := newQRig(t, 0.002)
	q := r.exec(t, Build(13, 1))

	cust := r.store.Table("customer")
	orders := r.store.Table("orders")
	has := map[int64]bool{}
	for _, ck := range orders.Col("o_custkey").I {
		has[ck] = true
	}
	want := map[int64]float64{}
	for i := 0; i < cust.Rows; i++ {
		if !has[cust.Col("c_custkey").I[i]] {
			want[cust.Col("c_nationkey").I[i]]++
		}
	}
	gk := q.Var("gk").FlattenI64()
	gs := q.Var("gs").FlattenF64()
	if len(gk) != len(want) {
		t.Fatalf("Q13 groups = %d, want %d", len(gk), len(want))
	}
	for i, k := range gk {
		if gs[i] != want[k] {
			t.Errorf("nation %d count = %g, want %g", k, gs[i], want[k])
		}
	}
}

func TestQ18HavingFilter(t *testing.T) {
	r := newQRig(t, 0.002)
	seed := uint64(4)
	q := r.exec(t, Build(18, seed))
	rr := newRNG(seed ^ 18)
	threshold := float64(120 + rr.intn(60))
	for i, s := range q.Var("gs").FlattenF64() {
		if s <= threshold {
			t.Errorf("group %d sum %g violates HAVING > %g", i, s, threshold)
		}
	}
}

func TestTopNOrdering(t *testing.T) {
	r := newQRig(t, 0.002)
	q := r.exec(t, Build(3, 2))
	gs := q.Var("gs").FlattenF64()
	if len(gs) > 10 {
		t.Errorf("Q3 TopN returned %d rows, want <= 10", len(gs))
	}
	for i := 1; i < len(gs); i++ {
		if gs[i] > gs[i-1] {
			t.Errorf("TopN not descending at %d: %g > %g", i, gs[i], gs[i-1])
		}
	}
}

func TestBuildPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build(0) did not panic")
		}
	}()
	Build(0, 1)
}

func TestMixedSeedsChangeParameters(t *testing.T) {
	// The mixed-phases workload relies on seed-varied constants.
	a := Q6ParamsFromSeed(1)
	different := false
	for s := uint64(2); s < 20; s++ {
		if Q6ParamsFromSeed(s) != a {
			different = true
			break
		}
	}
	if !different {
		t.Error("Q6 parameters identical across 19 seeds")
	}
}
