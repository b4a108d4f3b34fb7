package sched

import (
	"testing"

	"elasticore/internal/numa"
	"elasticore/internal/obs"
)

// obs_test.go guards the scheduler's side of the telemetry contracts:
// attaching a bus must not allocate on the steady-state tick path, must
// not perturb the simulation, and must feed the same stream the
// deprecated single hooks saw.

// spinners pins one busy thread per core, the densest run-slice publish
// load the tick path can see.
func spinners(s *Scheduler, topo *numa.Topology) {
	for c := 0; c < topo.TotalCores(); c++ {
		s.Spawn(1, "spin", RunnerFunc(func(_ *ExecContext, budget uint64) (uint64, bool, bool) {
			return budget, false, false
		}), Pinned(NewCPUSet(numa.CoreID(c))))
	}
}

// TestTickWithBusZeroAlloc extends the zero-alloc guard to a lit bus:
// Event is a flat value copied into the preallocated ring, so publishing
// a run slice per core per quantum allocates nothing.
func TestTickWithBusZeroAlloc(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	s := New(machine, Config{})
	s.SetBus(obs.NewBus(1 << 10))
	spinners(s, machine.Topology())
	for i := 0; i < 32; i++ {
		s.Tick()
	}
	if allocs := testing.AllocsPerRun(200, func() { s.Tick() }); allocs != 0 {
		t.Fatalf("steady-state Tick with bus allocated %v times per run, want 0", allocs)
	}
}

// TestTracedTickMatchesUntraced: a bus is pure observation — two
// identical schedulers, one traced and one dark, end every quantum in
// the same state.
func TestTracedTickMatchesUntraced(t *testing.T) {
	build := func(bus *obs.Bus) (*Scheduler, *numa.Machine) {
		machine := numa.NewMachine(numa.Opteron8387())
		s := New(machine, Config{})
		if bus != nil {
			s.SetBus(bus)
		}
		// A blocking workload on few cores exercises wake migrations and
		// stealing, not just run slices.
		set := NewCPUSet(0, 1, 8, 9)
		for i := 0; i < 12; i++ {
			s.Spawn(1, "worker", RunnerFunc(func(_ *ExecContext, budget uint64) (uint64, bool, bool) {
				return budget / 3, true, false
			}), Pinned(set))
		}
		return s, machine
	}
	bus := obs.NewBus(1 << 14)
	traced, tracedM := build(bus)
	dark, darkM := build(nil)
	for i := 0; i < 64; i++ {
		traced.Tick()
		traced.WakeAll(1)
		dark.Tick()
		dark.WakeAll(1)
	}
	if traced.Stats() != dark.Stats() {
		t.Fatalf("traced stats %+v != untraced %+v", traced.Stats(), dark.Stats())
	}
	if tracedM.Now() != darkM.Now() {
		t.Fatalf("traced clock %d != untraced %d", tracedM.Now(), darkM.Now())
	}
	slices := bus.EventsOfKind(obs.KindRunSlice)
	if len(slices) == 0 {
		t.Fatal("traced run published no run slices")
	}
	migrations := bus.EventsOfKind(obs.KindMigration)
	if len(migrations) != int(traced.Stats().Migrations) {
		t.Fatalf("bus saw %d migrations, stats counted %d", len(migrations), traced.Stats().Migrations)
	}
}

// TestBusSubscribersCoexist: several bus subscribers see the same
// stream — the replace-on-attach clobbering of the deleted single hooks
// cannot recur.
func TestBusSubscribersCoexist(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	s := New(machine, Config{})
	busSlicesA, busSlicesB := 0, 0
	b := obs.NewBus(0)
	s.SetBus(b)
	b.Subscribe(obs.KindRunSlice, func(obs.Event) { busSlicesA++ })
	b.Subscribe(obs.KindRunSlice, func(obs.Event) { busSlicesB++ })
	spinners(s, machine.Topology())
	for i := 0; i < 8; i++ {
		s.Tick()
	}
	if busSlicesA == 0 || busSlicesA != busSlicesB {
		t.Fatalf("bus subscribers saw %d and %d slices — want equal and > 0",
			busSlicesA, busSlicesB)
	}
}

// TestWakeMigrationSubscriberMovesTheThread: Wake publishes a thread's
// migration only once the thread is queued, so a subscriber that writes
// the cpuset from the event re-places it like any queued thread. Four
// threads of pid 1 sleep on cores 0-3; the group shrinks to {1,2,3,8},
// which leaves core 0 out, and the first wake migration writes {8,9}.
// Every woken thread must end queued inside {8,9}.
func TestWakeMigrationSubscriberMovesTheThread(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	s := New(machine, Config{})
	bus := obs.NewBus(0)
	s.SetBus(bus)
	g := s.NewCGroup("db")
	g.AddPID(1)
	g.SetCPUs(NewCPUSet(0, 1, 2, 3))
	sleeper := RunnerFunc(func(_ *ExecContext, budget uint64) (uint64, bool, bool) { return budget / 2, true, false })
	var threads []*Thread
	for i := 0; i < 4; i++ {
		threads = append(threads, s.Spawn(1, "sleeper", sleeper))
	}
	s.Tick()
	for _, th := range threads {
		if th.state != Blocked {
			t.Fatalf("TID %d is %v after one tick, want Blocked", th.ID, th.state)
		}
	}
	g.SetCPUs(NewCPUSet(1, 2, 3, 8))
	target := NewCPUSet(8, 9)
	written := false
	bus.Subscribe(obs.KindMigration, func(obs.Event) {
		if !written {
			written = true
			g.SetCPUs(target)
		}
	})
	s.WakeAll(1)
	if !written {
		t.Fatal("WakeAll published no migration")
	}
	for _, th := range threads {
		queued := false
		for i := 0; i < s.queues[th.core].Len(); i++ {
			queued = queued || s.queues[th.core].At(i) == th
		}
		if th.state != Runnable || !queued || !target.Contains(th.core) {
			t.Errorf("TID %d: state %v, core %d, queued there %v; want Runnable and queued inside %v",
				th.ID, th.state, th.core, queued, target)
		}
	}
}
