package elastic

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
)

// quiet_test.go pins the quiet fixed point: a mechanism that settles its
// idle periods through Maybe is indistinguishable from one that evaluates
// every period through Step, and the fixed point ends as soon as one of
// its inputs can change.

// quietTwin is one side of the replay differential: a machine, its
// scheduler and a mechanism publishing onto a bus of its own, plus a
// remote region for its threads to stream.
type quietTwin struct {
	s      *sched.Scheduler
	m      *Mechanism
	bus    *obs.Bus
	region numa.Region
}

// quietStrategies are the two in-tree strategies.
var quietStrategies = []Strategy{
	CPULoadStrategy{},
	HTIMCStrategy{},
}

// newQuietTwin wires a twin whose control period, 2.5 quanta, is off the
// quantum grid, so its stride (3 quanta) is not the period.
func newQuietTwin(t *testing.T, strategy Strategy, initial, backlog int) quietTwin {
	t.Helper()
	machine := numa.NewMachine(numa.Opteron8387())
	topo := machine.Topology()
	s := sched.New(machine, sched.Config{})
	g := s.NewCGroup("dbms")
	g.AddPID(1)
	m, err := New(Config{
		Scheduler:     s,
		CGroup:        g,
		Allocator:     NewDense(topo),
		Strategy:      strategy,
		ControlPeriod: s.Quantum() * 5 / 2,
		InitialCores:  initial,
		Backlog:       func() int { return backlog },
	})
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus(1 << 16)
	m.SetBus(bus, "t")
	return quietTwin{s: s, m: m, bus: bus, region: machine.Memory().AllocOn(64, 3, 1)}
}

// burst spawns four threads that each stream the remote region for the
// given number of quanta, then exit.
func (tw quietTwin) burst(quanta uint64) {
	bytes := tw.s.Machine().Topology().BlockBytes
	for k := 0; k < 4; k++ {
		left, i := quanta*tw.s.Quantum(), k
		tw.s.Spawn(1, "w", sched.RunnerFunc(func(ctx *sched.ExecContext, budget uint64) (uint64, bool, bool) {
			var used uint64
			for used < budget && left > 0 {
				c := ctx.Access(numa.Access{Block: tw.region.Block(i % tw.region.Blocks), Bytes: bytes})
				used += c
				left -= min(c, left)
				i++
			}
			return used, false, left == 0
		}))
	}
}

// quietBursts is the shared schedule: quantum -> burst length in quanta.
// The two at 1200 and 1201 are a fraction of a quantum apart in work.
var quietBursts = map[int]uint64{300: 40, 1200: 1, 1201: 1, 2000: 150}

const quietHorizon = 2600

// stepEvery is the reference: one quantum at a time, a Step whenever a
// period is due — it never settles.
func (tw quietTwin) stepEvery() {
	for q := 0; q < quietHorizon; q++ {
		if c, ok := quietBursts[q]; ok {
			tw.burst(c)
		}
		tw.s.Advance(1)
		if tw.m.Due() {
			tw.m.Step()
		}
	}
}

// replay is workload.Rig.Advance's rule over random stretches: a stretch
// ends at the next due period unless the mechanism is Quiet, and Maybe
// runs at its end.
func (tw quietTwin) replay(rng *rand.Rand) {
	quantum := tw.s.Quantum()
	for q := 0; q < quietHorizon; {
		if c, ok := quietBursts[q]; ok {
			tw.burst(c)
		}
		n := quietHorizon - q
		for b := range quietBursts {
			if b > q {
				n = min(n, b-q)
			}
		}
		n = min(n, 1+rng.Intn(64))
		if !tw.m.Quiet() { // Maybe leaves the next period in the future
			n = min(n, int((tw.m.NextAt()-tw.s.Machine().Now()-1)/quantum+1))
		}
		tw.s.Advance(n)
		q += n
		tw.m.Maybe()
	}
}

// TestQuietReplayMatchesStepping: for each in-tree strategy, from the
// floor, mid-machine and all cores, with no backlog and with one above the
// clamp, a mechanism driven through Maybe across idle stretches matches
// one that Steps every period — in Events(), the bus stream, TokenFlows,
// the net's marking, the cpuset and the next real evaluation's window —
// while settling periods the reference evaluated.
func TestQuietReplayMatchesStepping(t *testing.T) {
	for _, st := range quietStrategies {
		for _, initial := range []int{1, 8, 16} {
			for _, backlog := range []int{0, 1000} {
				label := fmt.Sprintf("%s from %d cores, backlog %d", st.Name(), initial, backlog)
				ref := newQuietTwin(t, st, initial, backlog)
				got := newQuietTwin(t, st, initial, backlog)
				ref.stepEvery()
				got.replay(rand.New(rand.NewSource(int64(initial + backlog))))

				if ref.m.Replayed != 0 || got.m.Replayed == 0 {
					t.Fatalf("%s: the reference replayed %d periods and the replaying twin %d", label, ref.m.Replayed, got.m.Replayed)
				}
				if got.m.TokenFlows != ref.m.TokenFlows || got.m.NextAt() != ref.m.NextAt() {
					t.Fatalf("%s: %d periods next due at %d, want %d at %d", label, got.m.TokenFlows, got.m.NextAt(), ref.m.TokenFlows, ref.m.NextAt())
				}
				if !reflect.DeepEqual(got.m.Events(), ref.m.Events()) {
					t.Fatalf("%s: timelines diverged (%d vs %d events)", label, len(got.m.Events()), len(ref.m.Events()))
				}
				if !reflect.DeepEqual(got.bus.Events(), ref.bus.Events()) || ref.bus.Dropped() > 0 {
					t.Fatalf("%s: bus streams diverged (%d vs %d events)", label, got.bus.Len(), ref.bus.Len())
				}
				if g, w := got.m.Net().NAlloc(), ref.m.Net().NAlloc(); g != w {
					t.Fatalf("%s: net nalloc %d, want %d", label, g, w)
				}
				if got.m.Allocated() != ref.m.Allocated() {
					t.Fatalf("%s: cpuset %v, want %v", label, got.m.Allocated(), ref.m.Allocated())
				}

				// The next real window: busy work, then the first due period.
				for _, tw := range []quietTwin{ref, got} {
					tw.burst(3)
					for !tw.m.Due() {
						tw.s.Advance(1)
					}
				}
				if g, w := got.m.DesiredStep(), ref.m.DesiredStep(); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: next evaluation %+v, want %+v", label, g, w)
				}
			}
		}
	}
}

// TestQuietEndsWhenAnInputMoves: a Step with a stride-long idle window
// and no action reaches the fixed point, an idle Advance keeps it, and
// each input that could change the next evaluation ends it — as does a
// window of another length, such as a first step taken late after New.
func TestQuietEndsWhenAnInputMoves(t *testing.T) {
	quiet := func(t *testing.T) (*sched.Scheduler, *Mechanism) {
		t.Helper()
		s, m := newRig(t, nil)
		s.Advance(3) // three quanta: one more than the stride
		m.Maybe()
		if m.Quiet() {
			t.Fatal("quiet after a first window longer than the stride")
		}
		// Memory touched off the scheduler (a loader's first touch: a minor
		// fault and a DRAM read, but no busy cycle) is activity too.
		region := s.Machine().Memory().Alloc(1)
		s.Machine().Access(0, numa.Access{Block: region.Start, Bytes: 64})
		s.Advance(2)
		m.Maybe()
		if m.Quiet() {
			t.Fatal("quiet after a window in which memory was touched")
		}
		s.Advance(2)
		m.Maybe()
		if !m.Quiet() || m.Replayed != 0 {
			t.Fatalf("not quiet after a stride-long idle window at the floor (replayed %d)", m.Replayed)
		}
		s.Advance(7)
		m.Maybe()
		if !m.Quiet() || m.Replayed != 3 || m.TokenFlows != 6 {
			t.Fatalf("7 idle quanta (3 due periods) left quiet=%v, %d replayed of %d periods", m.Quiet(), m.Replayed, m.TokenFlows)
		}
		return s, m
	}
	cases := []struct {
		name string
		move func(s *sched.Scheduler, m *Mechanism)
	}{
		{"busy quantum", func(s *sched.Scheduler, m *Mechanism) {
			s.Spawn(1, "w", &finiteWork{remaining: s.Quantum() / 2})
			s.Advance(1) // runs it to completion: idle again, one quantum ticked
		}},
		{"idle Tick", func(s *sched.Scheduler, m *Mechanism) { s.Tick() }},
		{"DesiredStep", func(s *sched.Scheduler, m *Mechanism) { m.DesiredStep() }},
		{"SetCPUs", func(s *sched.Scheduler, m *Mechanism) {
			m.cfg.CGroup.SetCPUs(m.Allocated().Add(numa.CoreID(15)))
		}},
		{"backlog", func(s *sched.Scheduler, m *Mechanism) { m.SetBacklog(func() int { return 1 }) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, m := quiet(t)
			tc.move(s, m)
			if !s.Idle() {
				t.Fatal("the move left work runnable")
			}
			if m.Quiet() {
				t.Fatal("still quiet")
			}
			evaluated := m.TokenFlows - m.Replayed
			s.Advance(2)
			m.Maybe()
			if m.TokenFlows-m.Replayed != evaluated+1 {
				t.Fatal("the next due period was settled, not evaluated")
			}
		})
	}
}
