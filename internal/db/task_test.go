package db

import (
	"testing"

	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// funcKernel adapts closures to the kernel interface: how the tests build a
// task around an ad-hoc computation, and how the reference lowering of
// dense_test.go rebuilds the closure-driven tasks the slab replaced.
type funcKernel struct {
	process func(a, b int)
	finish  func() (*BAT, *BAT)
}

func (k funcKernel) runRange(a, b int) {
	if k.process != nil {
		k.process(a, b)
	}
}

func (k funcKernel) complete() (*BAT, *BAT) {
	if k.finish != nil {
		return k.finish()
	}
	return nil, nil
}

// testTask returns a free-standing chunkTask over [lo, hi) of inputs.
func testTask(m *numa.Machine, k kernel, lo, hi int, cyclesPerTuple uint64, inputs ...*BAT) *chunkTask {
	t := &chunkTask{}
	t.init("op", m, k, lo, hi, cyclesPerTuple, inputs...)
	return t
}

// activeQueries counts the submitted-but-unfinished queries e tracks.
func activeQueries(e *Engine) int {
	n := 0
	for _, q := range e.queries {
		if !q.done {
			n++
		}
	}
	return n
}

// TestChunkTaskRespectsBudget verifies resumability: a task stepped with
// tiny budgets makes incremental progress and eventually finishes with
// the same result as one big step.
func TestChunkTaskRespectsBudget(t *testing.T) {
	m := numa.NewMachine(numa.Opteron8387())
	col := NewF64("c", make([]float64, 10000))
	for i := range col.F {
		col.F[i] = 1
	}
	var sum float64
	mk := func() *chunkTask {
		sum = 0
		return testTask(m, funcKernel{process: func(a, b int) {
			for i := a; i < b; i++ {
				sum += col.F[i]
			}
		}}, 0, col.Len(), 2, col)
	}
	ctx := &sched.ExecContext{Machine: m, Core: 0, PID: 1}

	tk := mk()
	steps := 0
	for {
		used, done := tk.Step(ctx, 5000)
		if used > 5000 {
			t.Fatalf("used %d exceeds budget 5000", used)
		}
		steps++
		if done {
			break
		}
		if steps > 100000 {
			t.Fatal("task never finished")
		}
	}
	if sum != 10000 {
		t.Errorf("sum = %g, want 10000", sum)
	}
	if steps < 2 {
		t.Errorf("task finished in %d steps; budget not binding", steps)
	}
}

// TestChunkTaskDebtCarries verifies the congestion-integrity property: an
// atomic chunk whose cost exceeds the budget is paid down across quanta
// instead of being silently truncated.
func TestChunkTaskDebtCarries(t *testing.T) {
	m := numa.NewMachine(numa.Opteron8387())
	col := NewF64("c", make([]float64, 64))
	// Enormous per-tuple cost makes the first chunk exceed any small
	// budget.
	tk := testTask(m, funcKernel{}, 0, col.Len(), 1_000_000, col)
	ctx := &sched.ExecContext{Machine: m, Core: 0, PID: 1}

	var total uint64
	done := false
	for i := 0; i < 1_000_000 && !done; i++ {
		var used uint64
		used, done = tk.Step(ctx, 1000)
		if used > 1000 {
			t.Fatalf("step used %d > budget", used)
		}
		total += used
	}
	if !done {
		t.Fatal("task did not finish")
	}
	if total < 64*1_000_000 {
		t.Errorf("total charged %d below true cost %d — debt was truncated", total, 64*1_000_000)
	}
}

// TestFuncTaskPaysDownCost verifies single-shot combine tasks amortize
// their computed cost across quanta.
func TestFuncTaskPaysDownCost(t *testing.T) {
	ran := 0
	ft := &funcTask{label: "combine"}
	ft.work = func(*Query, *OpSpec, *sched.ExecContext) uint64 {
		ran++
		return 10_000
	}
	ctx := &sched.ExecContext{}
	var total uint64
	done := false
	for i := 0; i < 100 && !done; i++ {
		var used uint64
		used, done = ft.Step(ctx, 1500)
		total += used
	}
	if ran != 1 {
		t.Errorf("work ran %d times, want once", ran)
	}
	if !done || total != 10_000 {
		t.Errorf("done=%v total=%d, want true/10000", done, total)
	}
}

// TestGatherChargeBounds verifies the gather hook clamps its chunk range
// and charges nothing for empty candidates.
func TestGatherChargeBounds(t *testing.T) {
	m := numa.NewMachine(numa.Opteron8387())
	st := NewStore(m)
	if _, err := st.CreateTable("t", map[string]*BAT{"c": NewI64("c", make([]int64, 1000))}); err != nil {
		t.Fatal(err)
	}
	col := st.Table("t").Col("c")
	ctx := &sched.ExecContext{Machine: m, Core: 0, PID: 1}

	empty := NewI64("cand", nil)
	if got := chargeGathered(ctx, empty, col, 0, 10); got != 0 {
		t.Errorf("empty candidate charged %d cycles", got)
	}
	cand := NewI64("cand", []int64{10, 20, 900})
	if got := chargeGathered(ctx, cand, col, 0, 3); got == 0 {
		t.Error("non-empty candidate charged nothing")
	}
	// Out-of-range chunk bounds are clamped, not panicking.
	if got := chargeGathered(ctx, cand, col, 2, 50); got == 0 {
		t.Error("clamped chunk charged nothing")
	}
	if got := chargeGathered(ctx, cand, col, 5, 9); got != 0 {
		t.Errorf("fully out-of-range chunk charged %d", got)
	}
}

// TestServerThreadSerializesAdmission verifies that with a non-zero parse
// cost, n submissions take at least n*ParseCycles of virtual time.
func TestServerThreadSerializesAdmission(t *testing.T) {
	m := numa.NewMachine(numa.Opteron8387())
	sc := sched.New(m, sched.Config{Quantum: m.Topology().SecondsToCycles(50e-6)})
	st := NewStore(m)
	if _, err := st.CreateTable("lineitem", map[string]*BAT{
		"x": NewI64("x", make([]int64, 64)),
	}); err != nil {
		t.Fatal(err)
	}
	parse := int64(m.Topology().SecondsToCycles(1e-3))
	eng, err := NewEngine(st, Config{Scheduler: sc, PID: 5, ParseCycles: parse})
	if err != nil {
		t.Fatal(err)
	}
	var qs []*Query
	for i := 0; i < 4; i++ {
		qs = append(qs, eng.Submit(lower("tiny", ScanAll("lineitem", "x", "c"), Count("c", "n"))))
	}
	done := func() bool {
		for _, q := range qs {
			if !q.Done() {
				return false
			}
		}
		return true
	}
	if !sc.RunUntil(done, m.Topology().SecondsToCycles(60)) {
		t.Fatal("queries did not finish")
	}
	if now := m.Now(); now < uint64(4*parse) {
		t.Errorf("4 admissions finished in %d cycles, below serial parse floor %d", now, 4*parse)
	}
}

// TestParseDisabled verifies negative ParseCycles bypasses the front end.
func TestParseDisabled(t *testing.T) {
	m := numa.NewMachine(numa.Opteron8387())
	sc := sched.New(m, sched.Config{})
	st := NewStore(m)
	if _, err := st.CreateTable("lineitem", map[string]*BAT{
		"x": NewI64("x", make([]int64, 64)),
	}); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(st, Config{Scheduler: sc, PID: 5, ParseCycles: -1})
	if err != nil {
		t.Fatal(err)
	}
	if eng.serverThread != nil {
		t.Error("front end present despite ParseCycles < 0")
	}
	q := eng.Submit(lower("tiny", ScanAll("lineitem", "x", "c"), Count("c", "n")))
	if !sc.RunUntil(q.Done, m.Topology().SecondsToCycles(60)) {
		t.Fatal("query did not finish")
	}
	if q.Scalar("n") != 64 {
		t.Errorf("count = %g, want 64", q.Scalar("n"))
	}
}
