package experiments

import (
	"strings"
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
	"elasticore/internal/tpch"
)

// tracedRig is an OS-scheduled engine on the paper's testbed with one bus
// lit on both the scheduler and the engine.
func tracedRig(t *testing.T) (*sched.Scheduler, *db.Engine, *obs.Bus, *numa.Topology) {
	t.Helper()
	m := numa.NewMachine(numa.Opteron8387())
	sc := sched.New(m, sched.Config{Quantum: m.Topology().SecondsToCycles(100e-6)})
	store := db.NewStore(m)
	if _, err := tpch.Load(store, tpch.Config{SF: 0.002}); err != nil {
		t.Fatal(err)
	}
	eng, err := db.NewEngine(store, db.Config{Scheduler: sc, PID: 100})
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus(0)
	sc.SetBus(bus)
	eng.SetBus(bus, "")
	return sc, eng, bus, m.Topology()
}

func TestLifespanRecordsSlices(t *testing.T) {
	sc, eng, bus, topo := tracedRig(t)
	tr := newLifespan(bus, topo)
	q := eng.Submit(tpch.BuildQ6(1))
	if !sc.RunUntil(q.Done, topo.SecondsToCycles(300)) {
		t.Fatal("query did not finish")
	}
	if len(tr.slices) == 0 {
		t.Fatal("no run slices recorded")
	}
	cores := tr.CoresUsed()
	if len(cores) == 0 {
		t.Fatal("no threads observed")
	}
	nodes := tr.NodesUsed()
	for tid, n := range nodes {
		if n < 1 {
			t.Errorf("thread %d used %d nodes", tid, n)
		}
	}
}

func TestMigrationCountConsistent(t *testing.T) {
	sc, eng, bus, topo := tracedRig(t)
	tr := newLifespan(bus, topo)
	raw := 0
	bus.Subscribe(obs.KindMigration, func(obs.Event) { raw++ })
	// Heavy concurrency provokes stealing and migration.
	var qs []*db.Query
	for i := 0; i < 16; i++ {
		qs = append(qs, eng.Submit(tpch.BuildQ6(uint64(i))))
	}
	done := func() bool {
		for _, q := range qs {
			if !q.Done() {
				return false
			}
		}
		return true
	}
	if !sc.RunUntil(done, topo.SecondsToCycles(600)) {
		t.Fatal("queries did not finish")
	}
	total, cross := tr.MigrationCount()
	if cross > total {
		t.Errorf("cross-node %d exceeds total %d", cross, total)
	}
	if total != raw {
		t.Errorf("count %d != raw migration events %d", total, raw)
	}
}

func TestLifespanRenderProducesGrid(t *testing.T) {
	sc, eng, bus, topo := tracedRig(t)
	tr := newLifespan(bus, topo)
	q := eng.Submit(tpch.BuildQ6(1))
	sc.RunUntil(q.Done, topo.SecondsToCycles(300))
	out := tr.Render(10, 8)
	if !strings.Contains(out, "time") {
		t.Errorf("render missing header: %q", out[:40])
	}
	if len(strings.Split(out, "\n")) < 11 {
		t.Error("render has fewer rows than buckets")
	}
	empty := (&lifespan{topo: topo}).Render(5, 5)
	if !strings.Contains(empty, "no run slices") {
		t.Error("empty trace should say so")
	}
}

func TestTomographCollectsOperators(t *testing.T) {
	sc, eng, bus, topo := tracedRig(t)
	tg := newTomograph(bus, topo)
	q := eng.Submit(tpch.BuildQ6(1))
	if !sc.RunUntil(q.Done, topo.SecondsToCycles(300)) {
		t.Fatal("query did not finish")
	}
	stats := tg.Stats()
	if len(stats) == 0 {
		t.Fatal("no operator stats")
	}
	found := map[string]bool{}
	for _, s := range stats {
		found[s.Op] = true
		if s.Calls <= 0 {
			t.Errorf("%s has %d calls", s.Op, s.Calls)
		}
	}
	// Q6's plan must surface its MAL operators (Figure 6).
	for _, op := range []string{"algebra.thetasubselect", "algebra.subselect", "aggr.sum"} {
		if !found[op] {
			t.Errorf("operator %s missing from tomograph", op)
		}
	}
	out := tg.Render()
	if !strings.Contains(out, "algebra.thetasubselect") {
		t.Error("render missing operator line")
	}
}

func TestTomographParallelism(t *testing.T) {
	// The thetasubselect fans out across workers — the parallel access to
	// disjoint partitions the paper shows in Figure 6.
	sc, eng, bus, topo := tracedRig(t)
	tg := newTomograph(bus, topo)
	q := eng.Submit(tpch.BuildQ6(1))
	sc.RunUntil(q.Done, topo.SecondsToCycles(300))
	for _, s := range tg.Stats() {
		if s.Op == "algebra.thetasubselect" && s.Calls < 2 {
			t.Errorf("thetasubselect ran %d tasks, want parallel fan-out", s.Calls)
		}
	}
}

// TestTraceConsumersCoexist: before the bus, each trace constructor
// replaced the scheduler's single hook, so attaching a second consumer
// silently disconnected the first. All consumers now subscribe to the
// shared bus and see the same stream; the raw hooks are gone.
func TestTraceConsumersCoexist(t *testing.T) {
	sc, eng, bus, topo := tracedRig(t)
	trA := newLifespan(bus, topo)
	trB := newLifespan(bus, topo) // would have clobbered trA pre-bus
	tg := newTomograph(bus, topo)
	rawSlices := 0
	bus.Subscribe(obs.KindRunSlice, func(obs.Event) { rawSlices++ })

	q := eng.Submit(tpch.BuildQ6(1))
	if !sc.RunUntil(q.Done, topo.SecondsToCycles(300)) {
		t.Fatal("query did not finish")
	}

	if len(trA.slices) == 0 {
		t.Fatal("first trace saw no slices after a second attached")
	}
	if len(trA.slices) != len(trB.slices) {
		t.Fatalf("traces diverged: %d vs %d slices", len(trA.slices), len(trB.slices))
	}
	if rawSlices != len(trA.slices) {
		t.Fatalf("raw bus subscriber saw %d slices, trace consumers %d", rawSlices, len(trA.slices))
	}
	if len(tg.Stats()) == 0 {
		t.Fatal("tomograph saw no tasks while migration traces attached")
	}
}
