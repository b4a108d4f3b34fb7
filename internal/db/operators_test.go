package db

import (
	"math"
	"strings"
	"testing"

	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// opRig builds a minimal store+engine over hand-written columns so each
// operator's semantics can be checked in isolation.
type opRig struct {
	machine *numa.Machine
	sched   *sched.Scheduler
	store   *Store
	eng     *Engine
}

func newOpRig(t *testing.T) *opRig {
	t.Helper()
	m := numa.NewMachine(numa.Opteron8387())
	sc := sched.New(m, sched.Config{})
	st := NewStore(m)
	if _, err := st.CreateTable("t", map[string]*BAT{
		"k": NewI64("k", []int64{0, 1, 2, 3, 4, 5, 6, 7}),
		"v": NewF64("v", []float64{1, 2, 3, 4, 5, 6, 7, 8}),
		"g": NewI64("g", []int64{0, 1, 0, 1, 0, 1, 0, 1}),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CreateTable("dim", map[string]*BAT{
		"dk": NewI64("dk", []int64{1, 3, 5}),
		"dv": NewI64("dv", []int64{10, 30, 50}),
	}); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(st, Config{Scheduler: sc, PID: 9, MinPartRows: 2, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	return &opRig{machine: m, sched: sc, store: st, eng: eng}
}

// lower lowers steps unchecked, for a test that runs them as they are or
// appends a stage of its own to them.
func lower(name string, ops ...OpSpec) *Plan { return spec(name, ops...).Lower() }

// planOp plans one step's stage for q the way the engine does when a query
// reaches it, for a test that steps the tasks by hand. Its jobs are not
// handed off: each runs at its join.
func planOp(q *Query, op *OpSpec) []Task { return opTable[op.Kind].lower(q, op) }

// through returns the steps of ops up to and including the first that
// writes name: run alone, they leave name bound as a result, where the
// whole plan may have read it and let it die.
func through(ops []OpSpec, name string) []OpSpec {
	for i := range ops {
		for _, r := range opTable[ops[i].Kind].writes {
			if b, ok := ops[i].binding(r); ok && b.name == name {
				return ops[:i+1]
			}
		}
	}
	panic("db: no step writes " + name)
}

func (r *opRig) exec(t *testing.T, ops ...OpSpec) *Query {
	t.Helper()
	q := r.eng.Submit(lower("unit", ops...))
	if !r.sched.RunUntil(q.Done, r.machine.Topology().SecondsToCycles(60)) {
		t.Fatal("plan did not finish")
	}
	return q
}

func TestOpThetaSelect(t *testing.T) {
	r := newOpRig(t)
	q := r.exec(t, Scan("t", "k", "out", PredIRange(2, 6)))
	got := q.Var("out").FlattenI64()
	want := []int64{2, 3, 4, 5}
	assertI64(t, got, want)
}

func TestOpSubSelectRefines(t *testing.T) {
	r := newOpRig(t)
	q := r.exec(t,
		Scan("t", "k", "c1", PredIRange(0, 8)),
		Refine("c1", "t", "g", "c2", PredIEq(1)),
	)
	assertI64(t, q.Var("c2").FlattenI64(), []int64{1, 3, 5, 7})
}

func TestOpProjectionGathers(t *testing.T) {
	r := newOpRig(t)
	q := r.exec(t,
		Scan("t", "k", "c1", PredIIn(1, 4, 6)),
		Project("c1", "t", "v", "vals"),
	)
	got := q.Var("vals").FlattenF64()
	want := []float64{2, 5, 7}
	assertF64(t, got, want)
}

func TestOpMapF2(t *testing.T) {
	r := newOpRig(t)
	q := r.exec(t,
		Scan("t", "k", "c1", PredIRange(0, 3)),
		Project("c1", "t", "v", "a"),
		Project("c1", "t", "v", "b"),
		Map2("a", "b", "prod", MapMul),
	)
	assertF64(t, q.Var("prod").FlattenF64(), []float64{1, 4, 9})
}

func TestOpSumFAndCount(t *testing.T) {
	r := newOpRig(t)
	q := r.exec(t,
		Scan("t", "k", "c1", PredIRange(0, 8)),
		Project("c1", "t", "v", "vals"),
		Sum("vals", "sum"),
		Count("c1", "n"),
	)
	if got := q.Scalar("sum"); math.Abs(got-36) > 1e-9 {
		t.Errorf("sum = %g, want 36", got)
	}
	if got := q.Scalar("n"); got != 8 {
		t.Errorf("count = %g, want 8", got)
	}
}

func TestOpBuildMapAndProbeSemi(t *testing.T) {
	r := newOpRig(t)
	q := r.exec(t,
		ScanAll("dim", "dk", "cd"),
		Project("cd", "dim", "dk", "dkeys"),
		Build("dkeys", "", "dset"),
		ScanAll("t", "k", "ct"),
		ProbeSemi("ct", "t", "k", "dset", "hits"),
	)
	assertI64(t, q.Var("hits").FlattenI64(), []int64{1, 3, 5})
}

func TestOpProbeAnti(t *testing.T) {
	r := newOpRig(t)
	q := r.exec(t,
		ScanAll("dim", "dk", "cd"),
		Project("cd", "dim", "dk", "dkeys"),
		Build("dkeys", "", "dset"),
		ScanAll("t", "k", "ct"),
		ProbeAnti("ct", "t", "k", "dset", "misses"),
	)
	assertI64(t, q.Var("misses").FlattenI64(), []int64{0, 2, 4, 6, 7})
}

func TestOpProbeFetchPayload(t *testing.T) {
	r := newOpRig(t)
	q := r.exec(t,
		ScanAll("dim", "dk", "cd"),
		Project("cd", "dim", "dk", "dkeys"),
		Project("cd", "dim", "dv", "dvals"),
		Build("dkeys", "dvals", "d2v"),
		ScanAll("t", "k", "ct"),
		ProbeFetch("ct", "t", "k", "d2v", "hits", "payload"),
	)
	assertI64(t, q.Var("hits").FlattenI64(), []int64{1, 3, 5})
	assertI64(t, q.Var("payload").FlattenI64(), []int64{10, 30, 50})
}

func TestOpGroupSumMerge(t *testing.T) {
	r := newOpRig(t)
	q := r.exec(t,
		ScanAll("t", "k", "ct"),
		Project("ct", "t", "g", "keys"),
		Project("ct", "t", "v", "vals"),
		GroupSum("keys", "vals", "p"),
		GroupMerge("p", "gk", "gs"),
	)
	assertI64(t, q.Var("gk").FlattenI64(), []int64{0, 1})
	// group 0: v at even k = 1+3+5+7 = 16; group 1: 2+4+6+8 = 20.
	assertF64(t, q.Var("gs").FlattenF64(), []float64{16, 20})
}

func TestOpGroupSumCountMode(t *testing.T) {
	r := newOpRig(t)
	q := r.exec(t,
		ScanAll("t", "k", "ct"),
		Project("ct", "t", "g", "keys"),
		GroupSum("keys", "", "p"),
		GroupMerge("p", "gk", "gs"),
	)
	assertF64(t, q.Var("gs").FlattenF64(), []float64{4, 4})
}

func TestOpGroupFilterAndTopN(t *testing.T) {
	r := newOpRig(t)
	q := r.exec(t,
		ScanAll("t", "k", "ct"),
		Project("ct", "t", "k", "keys"),
		Project("ct", "t", "v", "vals"),
		GroupSum("keys", "vals", "p"),
		GroupMerge("p", "gk", "gs"),
		GroupFilter("gk", "gs", 3.5),
		TopN("gk", "gs", 3),
	)
	// Groups are singleton k->v; filter keeps v > 3.5; top 3 descending.
	assertF64(t, q.Var("gs").FlattenF64(), []float64{8, 7, 6})
	assertI64(t, q.Var("gk").FlattenI64(), []int64{7, 6, 5})
}

// TestOpPredTypeMismatchPanics: a predicate whose form does not apply to
// the column's kind panics when the selection operator is built, before any
// row is read — over base rows or over candidates of either form.
func TestOpPredTypeMismatchPanics(t *testing.T) {
	r := newOpRig(t)
	k, v := r.store.Table("t").Col("k"), r.store.Table("t").Col("v")
	mustPanic := func(name, want string, build func()) {
		t.Helper()
		defer func() {
			if got, _ := recover().(string); !strings.Contains(got, want) {
				t.Errorf("%s: panicked with %q, want it to mention %q", name, got, want)
			}
		}()
		build()
	}
	floatOnly := PredFRange(math.Inf(-1), math.Inf(1))
	mustPanic("float range on integer column", "integer column k", func() { NewFilterScan(k, floatOnly, 0, 8, nil) })
	mustPanic("integer range on float column", "float column v", func() { NewFilterScan(v, PredIRange(0, 9), 0, 8, nil) })
	mustPanic("empty predicate", "integer column k", func() { NewFilterScan(k, Pred{}, 0, 8, nil) })
	mustPanic("refining a materialized candidate", "float column v", func() {
		NewFilterRefine(v, PredIEq(1), NewI64("cand", []int64{0, 1}), nil)
	})
	mustPanic("refining a dense candidate", "integer column k", func() {
		NewFilterRefine(k, PredFLess(1), newDense("cand", 0, 2), nil)
	})
	// The lowering functions build their operators in place, through the
	// same check: a mismatched plan lowered unchecked dies while its first
	// stage is planned.
	mustPanic("planning a mismatched scan", "integer column k", func() {
		op := Scan("t", "k", "c", floatOnly)
		planOp(planningQuery(r.eng), &op)
	})
}

func TestOpEmptyInputsPropagate(t *testing.T) {
	r := newOpRig(t)
	ops := []OpSpec{
		Scan("t", "k", "c1", PredIEq(-1)), // empty selection
		Refine("c1", "t", "g", "c2", PredIEq(1)),
		Project("c2", "t", "v", "vals"),
		Sum("vals", "sum"),
	}
	if r.exec(t, through(ops, "vals")...).Var("vals").Rows() != 0 {
		t.Error("empty candidates produced values")
	}
	if q := r.exec(t, ops...); q.Scalar("sum") != 0 {
		t.Error("empty sum non-zero")
	}
}

func assertI64(t *testing.T, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func assertF64(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
