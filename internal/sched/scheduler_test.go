package sched

import (
	"testing"

	"elasticore/internal/faults"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
)

func newTestSched() *Scheduler {
	return New(numa.NewMachine(numa.Opteron8387()), Config{})
}

// fixedWork runs for a total of cycles and then finishes.
type fixedWork struct{ remaining uint64 }

func (w *fixedWork) Run(_ *ExecContext, budget uint64) (uint64, bool, bool) {
	if w.remaining <= budget {
		used := w.remaining
		w.remaining = 0
		return used, false, true
	}
	w.remaining -= budget
	return budget, false, false
}

func TestThreadRunsToCompletion(t *testing.T) {
	s := newTestSched()
	work := &fixedWork{remaining: 3 * s.Quantum()}
	th := s.Spawn(1, "w", work)
	for i := 0; i < 10 && th.State() != Done; i++ {
		s.Tick()
	}
	if th.State() != Done {
		t.Fatalf("thread state = %v, want done", th.State())
	}
	if work.remaining != 0 {
		t.Errorf("work remaining = %d", work.remaining)
	}
	if s.LiveThreads() != 0 {
		t.Errorf("LiveThreads = %d, want 0", s.LiveThreads())
	}
}

func TestSpawnSpreadsAcrossNodes(t *testing.T) {
	// With all cores allowed, the kernel's spreading policy must land the
	// first NodeCount threads on distinct nodes.
	s := newTestSched()
	topo := s.Machine().Topology()
	seen := make(map[numa.NodeID]bool)
	for i := 0; i < topo.NodeCount; i++ {
		th := s.Spawn(1, "w", &fixedWork{remaining: 100 * s.Quantum()})
		seen[topo.NodeOf(th.Core())] = true
	}
	if len(seen) != topo.NodeCount {
		t.Errorf("first %d threads touched %d nodes, want all %d",
			topo.NodeCount, len(seen), topo.NodeCount)
	}
}

func TestCGroupRestrictsPlacement(t *testing.T) {
	s := newTestSched()
	g := s.NewCGroup("dbms")
	g.AddPID(7)
	g.SetCPUs(NewCPUSet(0, 1))
	for i := 0; i < 6; i++ {
		th := s.Spawn(7, "w", &fixedWork{remaining: 100 * s.Quantum()})
		if c := th.Core(); c != 0 && c != 1 {
			t.Errorf("thread placed on core %d outside cpuset", c)
		}
	}
	// A PID outside the group is unrestricted.
	other := s.Spawn(8, "x", &fixedWork{remaining: 100 * s.Quantum()})
	_ = other // may land anywhere; just must not panic
}

// TestAddPIDMovesBetweenGroups: a process is in one cgroup at a time.
// Re-homing it drops it from the old group's membership (which feeds
// residency accounting) and from the old group's cpuset writes.
func TestAddPIDMovesBetweenGroups(t *testing.T) {
	s := newTestSched()
	a, b := s.NewCGroup("a"), s.NewCGroup("b")
	a.SetCPUs(NewCPUSet(0, 1))
	b.SetCPUs(NewCPUSet(8, 9))
	a.AddPID(7)
	a.AddPID(8)
	var ths []*Thread
	for i := 0; i < 4; i++ {
		ths = append(ths, s.Spawn(7, "w", &fixedWork{remaining: 100 * s.Quantum()}))
	}
	b.AddPID(7)
	if got := a.PIDs(); len(got) != 1 || got[0] != 8 {
		t.Errorf("old group still lists %v, want [8]", got)
	}
	if got := b.PIDs(); len(got) != 1 || got[0] != 7 {
		t.Errorf("new group lists %v, want [7]", got)
	}
	for _, th := range ths {
		if c := th.Core(); c != 8 && c != 9 {
			t.Errorf("thread on core %d after its process moved to {8,9}", c)
		}
	}
	before := s.Stats().Migrations
	a.SetCPUs(NewCPUSet(2, 3)) // no longer governs pid 7
	if got := s.Stats().Migrations; got != before {
		t.Errorf("old group's cpuset write migrated %d threads of a process that left it", got-before)
	}
	b.AddPID(7) // re-adding to the same group is a no-op
	if got := b.PIDs(); len(got) != 1 || got[0] != 7 {
		t.Errorf("re-add changed membership to %v", got)
	}
}

func TestCPUSetShrinkMigratesThreads(t *testing.T) {
	s := newTestSched()
	g := s.NewCGroup("dbms")
	g.AddPID(7)
	g.SetCPUs(FullSet(s.Machine().Topology()))
	var ths []*Thread
	for i := 0; i < 8; i++ {
		ths = append(ths, s.Spawn(7, "w", &fixedWork{remaining: 1000 * s.Quantum()}))
	}
	before := s.Stats().Migrations
	g.SetCPUs(NewCPUSet(0))
	for _, th := range ths {
		if th.State() != Done && th.Core() != 0 {
			t.Errorf("thread on core %d after shrink to {0}", th.Core())
		}
	}
	if s.Stats().Migrations == before {
		t.Error("shrink produced no migration events")
	}
}

func TestBalancerStealsFromBusyCore(t *testing.T) {
	s := newTestSched()
	// Pin spawn placement to core 0 via a one-core group, then widen the
	// set: the balancer must spread the backlog.
	g := s.NewCGroup("g")
	g.AddPID(1)
	g.SetCPUs(NewCPUSet(0))
	for i := 0; i < 8; i++ {
		s.Spawn(1, "w", &fixedWork{remaining: 1000 * s.Quantum()})
	}
	g.SetCPUs(NewCPUSet(0, 1, 2, 3))
	for i := 0; i < 8; i++ {
		s.Tick()
	}
	if s.Stats().StolenTasks == 0 {
		t.Error("balancer stole nothing from an 8-deep queue")
	}
	lens := s.QueueLengths()
	if lens[0] >= 8 {
		t.Errorf("core 0 queue still %d deep after balancing", lens[0])
	}
}

func TestPinnedThreadNeverLeavesMask(t *testing.T) {
	s := newTestSched()
	pin := NewCPUSet(5)
	th := s.Spawn(1, "pinned", &fixedWork{remaining: 50 * s.Quantum()}, Pinned(pin))
	if th.Core() != 5 {
		t.Fatalf("pinned thread placed on core %d, want 5", th.Core())
	}
	// Add load so the balancer is tempted.
	for i := 0; i < 10; i++ {
		s.Spawn(2, "w", &fixedWork{remaining: 50 * s.Quantum()})
	}
	for i := 0; i < 20; i++ {
		s.Tick()
		if th.State() == Done {
			break
		}
		if th.Core() != 5 {
			t.Fatalf("pinned thread migrated to core %d", th.Core())
		}
	}
}

func TestBlockedThreadWakes(t *testing.T) {
	s := newTestSched()
	phase := 0
	r := RunnerFunc(func(_ *ExecContext, budget uint64) (uint64, bool, bool) {
		switch phase {
		case 0:
			phase = 1
			return budget / 2, true, false // block after half a quantum
		default:
			return budget / 4, false, true // finish after wake
		}
	})
	th := s.Spawn(1, "blocky", r)
	s.Tick()
	if th.State() != Blocked {
		t.Fatalf("state = %v, want blocked", th.State())
	}
	// Blocked threads consume no CPU.
	busyBefore := s.Machine().Snapshot().Cores[th.Core()].BusyCycles
	s.Tick()
	if busy := s.Machine().Snapshot().Cores[th.Core()].BusyCycles; busy != busyBefore {
		t.Error("blocked thread consumed CPU")
	}
	s.Wake(th)
	s.Tick()
	if th.State() != Done {
		t.Errorf("state after wake = %v, want done", th.State())
	}
}

func TestWakeAllWakesOnlyPID(t *testing.T) {
	s := newTestSched()
	blockOnce := func() Runner {
		first := true
		return RunnerFunc(func(_ *ExecContext, budget uint64) (uint64, bool, bool) {
			if first {
				first = false
				return 1, true, false
			}
			return 1, false, true
		})
	}
	a := s.Spawn(1, "a", blockOnce())
	b := s.Spawn(2, "b", blockOnce())
	s.Tick()
	if a.State() != Blocked || b.State() != Blocked {
		t.Fatal("threads did not block")
	}
	s.WakeAll(1)
	if a.State() != Runnable {
		t.Error("pid-1 thread not woken")
	}
	if b.State() != Blocked {
		t.Error("pid-2 thread woken by WakeAll(1)")
	}
}

func TestIdleCoresChargeIdle(t *testing.T) {
	s := newTestSched()
	s.Tick()
	snap := s.Machine().Snapshot()
	for c, cc := range snap.Cores {
		if cc.IdleCycles != s.Quantum() {
			t.Errorf("core %d idle = %d, want %d", c, cc.IdleCycles, s.Quantum())
		}
		if cc.BusyCycles != 0 {
			t.Errorf("core %d busy = %d, want 0", c, cc.BusyCycles)
		}
	}
}

func TestCrossNodeStealDropsAffinity(t *testing.T) {
	s := newTestSched()
	g := s.NewCGroup("g")
	g.AddPID(1)
	g.SetCPUs(NewCPUSet(0))
	for i := 0; i < 6; i++ {
		s.Spawn(1, "w", &fixedWork{remaining: 1000 * s.Quantum()})
	}
	g.SetCPUs(NewCPUSet(0, 4, 8, 12)) // one core per node
	for i := 0; i < 12; i++ {
		s.Tick()
	}
	if s.Stats().CrossNodeMigrations == 0 {
		t.Error("no cross-node migrations despite one-core-per-node cpuset")
	}
}

func TestRunUntil(t *testing.T) {
	s := newTestSched()
	th := s.Spawn(1, "w", &fixedWork{remaining: 2 * s.Quantum()})
	ok := s.RunUntil(func() bool { return th.State() == Done }, 100*s.Quantum())
	if !ok {
		t.Error("RunUntil did not reach the predicate")
	}
	if !s.RunUntil(func() bool { return true }, 0) {
		t.Error("RunUntil with satisfied predicate returned false")
	}
	if s.RunUntil(func() bool { return false }, 3*s.Quantum()) {
		t.Error("RunUntil with impossible predicate returned true")
	}
}

func TestMigrationEventsObserved(t *testing.T) {
	s := newTestSched()
	var events []obs.Event
	bus := obs.NewBus(0)
	s.SetBus(bus)
	bus.Subscribe(obs.KindMigration, func(e obs.Event) { events = append(events, e) })
	g := s.NewCGroup("g")
	g.AddPID(1)
	g.SetCPUs(NewCPUSet(0))
	for i := 0; i < 5; i++ {
		s.Spawn(1, "w", &fixedWork{remaining: 500 * s.Quantum()})
	}
	g.SetCPUs(NewCPUSet(2, 3))
	if len(events) == 0 {
		t.Fatal("no migration events for displaced threads")
	}
	for _, e := range events {
		if e.Core != 2 && e.Core != 3 {
			t.Errorf("migration target %d outside new cpuset", e.Core)
		}
	}
}

// TestCoreSlowdown: a factor-F core charges F wall cycles per retired
// work cycle; a stalled core freezes its queue without losing threads;
// clearing the factor restores full speed.
func TestCoreSlowdown(t *testing.T) {
	s := newTestSched()
	q := s.Quantum()
	th := s.Spawn(1, "w", &fixedWork{remaining: 4 * q}, Pinned(NewCPUSet(0)))
	if got := s.CoreSlowdown(0); got != 1 {
		t.Fatalf("untouched core reports factor %d", got)
	}

	s.SetCoreSlowdown(0, 4)
	s.Tick() // retires q/4 work in one quantum of wall time
	if th.State() != Runnable {
		t.Fatalf("thread state %v after slowed tick", th.State())
	}
	for i := 0; i < 14; i++ { // 15 slowed quanta < 16 needed
		s.Tick()
	}
	if th.State() == Done {
		t.Fatal("4x-slowed thread finished as if at full speed")
	}

	s.SetCoreSlowdown(0, faults.StallFactor)
	before := s.machine.Now()
	for i := 0; i < 8; i++ {
		s.Tick()
	}
	if th.State() == Done {
		t.Fatal("stalled core retired work")
	}
	if s.machine.Now() != before+8*q {
		t.Fatal("stalled ticks did not advance the clock")
	}
	if s.QueueLengths()[0] != 1 {
		t.Fatal("stalled core lost its queued thread")
	}

	s.SetCoreSlowdown(0, 1)
	if !s.RunUntil(func() bool { return th.State() == Done }, 100*q) {
		t.Fatal("thread did not finish after the stall lifted")
	}
}

// TestZeroConfigReadsTimebase: a zero Quantum is the machine's timebase
// quantum.
func TestZeroConfigReadsTimebase(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	if got, want := New(machine, Config{}).Quantum(), machine.Timebase().Quantum; got != want {
		t.Errorf("quantum %d, want the timebase's %d", got, want)
	}
}
