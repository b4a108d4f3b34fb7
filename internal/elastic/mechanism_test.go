package elastic

import (
	"reflect"
	"testing"

	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/petrinet"
	"elasticore/internal/sched"
)

// busyWork keeps a thread 100% busy forever.
type busyWork struct{}

func (busyWork) Run(_ *sched.ExecContext, budget uint64) (uint64, bool, bool) {
	return budget, false, false
}

func newRig(t *testing.T, alloc func(*numa.Topology) Allocator) (*sched.Scheduler, *Mechanism) {
	t.Helper()
	machine := numa.NewMachine(numa.Opteron8387())
	s := sched.New(machine, sched.Config{})
	g := s.NewCGroup("dbms")
	g.AddPID(1)
	var a Allocator
	if alloc != nil {
		a = alloc(machine.Topology())
	} else {
		a = NewDense(machine.Topology())
	}
	m, err := New(Config{
		Scheduler:     s,
		CGroup:        g,
		Allocator:     a,
		Strategy:      CPULoadStrategy{},
		ControlPeriod: s.Quantum() * 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

func TestMechanismStartsWithOneCore(t *testing.T) {
	_, m := newRig(t, nil)
	if got := m.Allocated().Count(); got != 1 {
		t.Errorf("initial allocation = %d cores, want 1", got)
	}
	if m.Net().NAlloc() != 1 {
		t.Errorf("net nalloc = %d, want 1", m.Net().NAlloc())
	}
}

func TestMechanismAllocatesUnderLoad(t *testing.T) {
	s, m := newRig(t, nil)
	for i := 0; i < 8; i++ {
		s.Spawn(1, "w", busyWork{})
	}
	for i := 0; i < 40; i++ {
		s.Tick()
		m.Maybe()
	}
	if got := m.Allocated().Count(); got < 2 {
		t.Errorf("allocated %d cores under saturation, want growth", got)
	}
	// Every event label must be a recognized path.
	for _, e := range m.Events() {
		switch e.Label {
		case "t0-Idle-t4", "t0-Idle-t7", "t1-Overload-t5", "t1-Overload-t6", "t2-Stable-t3":
		default:
			t.Errorf("unexpected transition label %q", e.Label)
		}
	}
}

// finiteWork runs for a fixed number of cycles, then exits.
type finiteWork struct{ remaining uint64 }

func (w *finiteWork) Run(_ *sched.ExecContext, budget uint64) (uint64, bool, bool) {
	if w.remaining <= budget {
		used := w.remaining
		w.remaining = 0
		return used, false, true
	}
	w.remaining -= budget
	return budget, false, false
}

func TestMechanismReleasesWhenIdle(t *testing.T) {
	s, m := newRig(t, nil)
	for i := 0; i < 8; i++ {
		s.Spawn(1, "w", &finiteWork{remaining: 40 * s.Quantum()})
	}
	grown := 1
	for i := 0; i < 120; i++ {
		s.Tick()
		m.Maybe()
		if c := m.Allocated().Count(); c > grown {
			grown = c
		}
	}
	if grown < 2 {
		t.Fatalf("precondition: expected growth under load, peak was %d cores", grown)
	}
	// All work has finished by now; the idle sub-net must shrink the
	// allocation back to one core.
	for i := 0; i < 300 && m.Allocated().Count() > 1; i++ {
		s.Tick()
		m.Maybe()
	}
	if got := m.Allocated().Count(); got != 1 {
		t.Errorf("allocation after idling = %d cores, want 1", got)
	}
}

func TestMechanismEventsRecordCoresAndTime(t *testing.T) {
	s, m := newRig(t, nil)
	for i := 0; i < 8; i++ {
		s.Spawn(1, "w", busyWork{})
	}
	for i := 0; i < 20; i++ {
		s.Tick()
		m.Maybe()
	}
	events := m.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	var lastNow uint64
	for _, e := range events {
		if e.Now < lastNow {
			t.Error("events not in time order")
		}
		lastNow = e.Now
		if e.NAlloc < 1 || e.NAlloc > 16 {
			t.Errorf("event nalloc = %d out of bounds", e.NAlloc)
		}
	}
}

func TestMechanismRespectsControlPeriod(t *testing.T) {
	s, m := newRig(t, nil)
	// Control period is 2 quanta; 10 ticks should yield about 5 steps.
	for i := 0; i < 10; i++ {
		s.Tick()
		m.Maybe()
	}
	if got := m.TokenFlows; got < 4 || got > 6 {
		t.Errorf("token flows = %d over 10 ticks with period 2, want ~5", got)
	}
}

func TestMechanismAdaptiveFollowsResidency(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	s := sched.New(machine, sched.Config{})
	g := s.NewCGroup("dbms")
	g.AddPID(1)
	adaptive := NewAdaptive(machine.Topology(), func() []int {
		return machine.Residency(g.PIDs())
	})
	m, err := New(Config{
		Scheduler:     s,
		CGroup:        g,
		Allocator:     adaptive,
		ControlPeriod: s.Quantum() * 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Home data on node 2 under PID 1, then saturate: allocations must
	// prefer node 2's cores.
	machine.Memory().AllocOn(64, 2, 1)
	for i := 0; i < 8; i++ {
		s.Spawn(1, "w", busyWork{})
	}
	for i := 0; i < 30; i++ {
		s.Tick()
		m.Maybe()
	}
	set := m.Allocated()
	topo := machine.Topology()
	onNode2 := set.OnNode(topo, 2).Count()
	for n := 0; n < topo.NodeCount; n++ {
		if n != 2 && set.OnNode(topo, numa.NodeID(n)).Count() > onNode2 {
			t.Errorf("node %d has more cores than hot node 2: set=%v", n, set)
		}
	}
	if onNode2 == 0 && set.Count() > 1 {
		t.Errorf("no cores on the residency-hot node: set=%v", set)
	}
}

func TestMechanismNetSyncAfterFailedAction(t *testing.T) {
	// With all cores allocated, an allocate decision cannot be honoured;
	// net nalloc must stay equal to the cgroup count.
	s, m := newRig(t, nil)
	for i := 0; i < 32; i++ {
		s.Spawn(1, "w", busyWork{})
	}
	for i := 0; i < 300; i++ {
		s.Tick()
		m.Maybe()
		if m.Net().NAlloc() != m.Allocated().Count() {
			t.Fatalf("net nalloc %d != allocated %d", m.Net().NAlloc(), m.Allocated().Count())
		}
	}
	if m.Allocated().Count() != 16 {
		t.Errorf("sustained saturation allocated %d cores, want all 16", m.Allocated().Count())
	}
}

func TestDesiredStepReportsWithoutTouchingCGroup(t *testing.T) {
	s, m := newRig(t, nil)
	for i := 0; i < 8; i++ {
		s.Spawn(1, "w", busyWork{})
	}
	for i := 0; i < 10; i++ {
		s.Tick()
	}
	before := m.Allocated()
	d := m.DesiredStep()
	if m.Allocated() != before {
		t.Errorf("DesiredStep changed the cpuset: %v -> %v", before, m.Allocated())
	}
	if d.Decision != petrinet.DecisionAllocate || d.N != before.Count()+1 {
		t.Errorf("saturated desire = (%v, %d), want (allocate, %d)", d.Decision, d.N, before.Count()+1)
	}
	if d.Window.Now == 0 {
		t.Error("desire carries no counter window")
	}
	if m.Due() {
		t.Error("mechanism still due right after an evaluation")
	}
}

// TestMechanismBacklogForcesAllocation is the queue-pressure path: an
// idle machine (reading far below thmax) with a deep admission queue must
// still grow the allocation, and stop reacting once the backlog source is
// unwired.
func TestMechanismBacklogForcesAllocation(t *testing.T) {
	s, m := newRig(t, nil)
	backlog := 100
	m.SetBacklog(func() int { return backlog })
	for i := 0; i < 40; i++ {
		s.Tick()
		m.Maybe()
	}
	if got := m.Allocated().Count(); got < 4 {
		t.Errorf("deep backlog on an idle machine grew allocation to %d cores, want >= 4", got)
	}
	for _, e := range m.Events() {
		if e.U < 70 {
			t.Errorf("backlog-clamped reading %d below thmax 70 in event %q", e.U, e.Label)
		}
	}
	// Drain the queue and unwire: the idle sub-net must shrink again.
	backlog = 0
	m.SetBacklog(nil)
	for i := 0; i < 400 && m.Allocated().Count() > 1; i++ {
		s.Tick()
		m.Maybe()
	}
	if got := m.Allocated().Count(); got != 1 {
		t.Errorf("allocation after unwiring backlog = %d cores, want 1", got)
	}
}

// TestMechanismBacklogBelowThresholdIsInert pins the per-core tolerance:
// a shallow queue (at most backlogPerCore per allocated core) must not
// perturb the strategy reading.
func TestMechanismBacklogBelowThresholdIsInert(t *testing.T) {
	s, m := newRig(t, nil)
	m.SetBacklog(func() int { return 4 }) // == backlogPerCore * 1 core
	for i := 0; i < 40; i++ {
		s.Tick()
		m.Maybe()
	}
	if got := m.Allocated().Count(); got != 1 {
		t.Errorf("shallow backlog on an idle machine allocated %d cores, want 1", got)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	s := sched.New(machine, sched.Config{})
	g := s.NewCGroup("g")
	if _, err := New(Config{CGroup: g, Allocator: NewDense(machine.Topology())}); err == nil {
		t.Error("missing scheduler accepted")
	}
	if _, err := New(Config{Scheduler: s, CGroup: g}); err == nil {
		t.Error("missing allocator accepted")
	}
}

func TestFindLONC(t *testing.T) {
	// Synthetic probe: load halves as cores double; performance saturates
	// at 4 cores and degrades slightly at 16 (NUMA overhead).
	probe := func(n int) (float64, float64) {
		u := 200.0 / float64(n)
		if u > 100 {
			u = 100
		}
		perf := float64(n)
		if n > 4 {
			perf = 4.5 - 0.02*float64(n)
		}
		return u, perf
	}
	n, ok := FindLONC(probe, 16, 10, 70)
	if !ok {
		t.Fatal("no LONC found")
	}
	// u(4)=50 within (10,70); perf(4)=4 >= perf(16)=4.18? perf(16)=4.5-0.32=4.18.
	// perf(4)=4 < 4.18 so n=4 fails; n=5: u=40, perf=4.4 >= 4.18 -> LONC=5.
	if n != 5 {
		t.Errorf("LONC = %d, want 5", n)
	}
	// Decision label sanity for petrinet import.
	if petrinet.DecisionAllocate.String() != "allocate" {
		t.Error("decision string broken")
	}
}

func TestFindLONCNoSolution(t *testing.T) {
	probe := func(n int) (float64, float64) { return 100, float64(n) }
	n, ok := FindLONC(probe, 8, 10, 70)
	if ok || n != 8 {
		t.Errorf("FindLONC = %d,%v, want 8,false", n, ok)
	}
	if _, ok := FindLONC(probe, 0, 10, 70); ok {
		t.Error("FindLONC with 0 cores must fail")
	}
}

// TestStepZeroAlloc: a steady-state control period — counter window,
// strategy reading, net evaluation, event record, bus publish — allocates
// nothing, dark or lit. The machine idles at one core (t0-Idle-t7) and
// then saturates at all sixteen (t1-Overload-t6), the two steady states a
// run spends its periods in. In between, the idle machine reaches its
// quiet fixed point and Maybe settles three periods at a time: that
// extends the timeline's run (obs.TestTimelineRepeatExtendsOneRun) and
// restarts the counter window, and allocates nothing either. The events timeline grows by amortised
// append, which is not a per-step cost: the test pre-sizes it.
func TestStepZeroAlloc(t *testing.T) {
	for _, lit := range []bool{false, true} {
		s, m := newRig(t, func(topo *numa.Topology) Allocator {
			return NewAdaptive(topo, func() []int { return make([]int, topo.NodeCount) })
		})
		published := 0
		if lit {
			bus := obs.NewBus(64)
			bus.Subscribe(obs.KindTransition, func(obs.Event) { published++ })
			m.SetBus(bus, "")
		}
		m.events.Grow(4096)
		step := func() {
			s.Tick()
			m.Step()
		}
		check := func(state, label string) {
			t.Helper()
			if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
				t.Errorf("lit=%v %s: Step allocated %v times per period, want 0", lit, state, allocs)
			}
			if events := m.Events(); events[len(events)-1].Label != label {
				t.Errorf("lit=%v %s: last label %q, want %q", lit, state, events[len(events)-1].Label, label)
			}
		}
		check("idle", "t0-Idle-t7")

		s.Advance(2) // one stride of idle quanta: the fixed point
		m.Maybe()
		settle := func() {
			s.Advance(3 * 2)
			m.Maybe()
		}
		if allocs := testing.AllocsPerRun(200, settle); allocs != 0 {
			t.Errorf("lit=%v: settling 3 periods allocated %v times, want 0", lit, allocs)
		}
		if !m.Quiet() || m.Replayed != 3*201 {
			t.Errorf("lit=%v: quiet=%v after %d replayed periods, want 603", lit, m.Quiet(), m.Replayed)
		}

		for i := 0; i < 32; i++ {
			s.Spawn(1, "w", busyWork{})
		}
		for m.Allocated().Count() < 16 {
			step()
		}
		check("saturated", "t1-Overload-t6")
		if lit && published != len(m.Events()) {
			t.Errorf("bus saw %d transitions, timeline has %d", published, len(m.Events()))
		}
	}
}

// TestDesireWindowValidUntilNextEvaluation pins the lifetime rule of
// Desire.Window: it aliases the mechanism's reusable buffers, so a later
// evaluation overwrites it, while a caller that cloned what it needed
// keeps exactly what it saw. Each window must equal the value-API delta
// between the snapshots taken at its two ends.
func TestDesireWindowValidUntilNextEvaluation(t *testing.T) {
	s, m := newRig(t, nil)
	machine := s.Machine()
	for i := 0; i < 4; i++ {
		s.Spawn(1, "w", busyWork{})
	}
	run := func(ticks int) numa.Counters {
		for i := 0; i < ticks; i++ {
			s.Tick()
		}
		return machine.Snapshot()
	}
	start := machine.Snapshot()

	mid := run(10)
	first := m.DesiredStep()
	kept := first.Window.Clone()
	if want := mid.Sub(start); !reflect.DeepEqual(kept, want) {
		t.Fatalf("first window = %+v, want %+v", kept, want)
	}

	end := run(3)
	second := m.DesiredStep()
	if want := end.Sub(mid); !reflect.DeepEqual(second.Window, want) {
		t.Errorf("second window = %+v, want %+v", second.Window, want)
	}
	if want := mid.Sub(start); !reflect.DeepEqual(kept, want) {
		t.Errorf("cloned first window changed to %+v, want %+v", kept, want)
	}
	// The un-cloned first window has been recycled: its buffer now holds
	// the cumulative counters the third window will be measured from.
	if reflect.DeepEqual(first.Window.Cores, kept.Cores) {
		t.Error("first.Window survived the next evaluation; the lifetime rule documented on Desire.Window is stale")
	}
}
