package numa_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// window_test.go pins numa.CounterWindow to the value API it replaces in
// the control loop. It is an external test so that idle time can pass the
// way it does in a run, through sched.Scheduler.Advance.

// TestCounterWindowMatchesSnapshotSub: over a random history of reads,
// writes, busy charging, page faults and clock advances, every
// Advance equals Snapshot().Sub(previous snapshot) exactly, on windows of
// irregular length including empty ones ("history"); and a window
// Restarted at any grid cycle of an idle gap the scheduler skipped in
// bulk reports, at its next Advance, the Sub of a twin machine that ticked
// the same quanta one by one ("restart").
func TestCounterWindowMatchesSnapshotSub(t *testing.T) {
	t.Run("history", testWindowHistory)
	t.Run("restart", testWindowRestart)
}

func testWindowHistory(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		topo := numa.Opteron8387()
		m := numa.NewMachine(topo)
		const blocks = 256
		m.Memory().Alloc(blocks)
		quantum := topo.SecondsToCycles(50e-6)
		cores := topo.TotalCores()

		// Traffic before the window exists must not show in it.
		for i, ra := range numa.RandomRanges(seed+100, blocks)[:50] {
			m.AccessRange(numa.CoreID(i%cores), ra)
		}
		w := m.NewCounterWindow()
		last := m.Snapshot()

		rng := rand.New(rand.NewSource(seed))
		windows := 0
		for i, ra := range numa.RandomRanges(seed, blocks) {
			core := numa.CoreID(i % cores)
			m.AccessRange(core, ra)
			m.ChargeBusy(core, uint64(rng.Intn(1000)))
			if i%3 == 0 {
				m.AdvanceTime(quantum)
			}
			if rng.Intn(4) != 0 {
				continue
			}
			// Sometimes two windows back to back: the second is empty.
			for n := 1 + rng.Intn(2); n > 0; n-- {
				snap := m.Snapshot()
				want := snap.Sub(last)
				last = snap
				if got := w.Advance(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: window = %+v, Snapshot().Sub() = %+v", seed, i, got, want)
				}
				windows++
			}
		}
		if windows < 100 {
			t.Fatalf("seed %d: only %d windows compared", seed, windows)
		}
		if last.TotalMinorFaults() == 0 || last.TotalHTBytes() == 0 {
			t.Fatalf("seed %d: history raised no faults or no interconnect traffic", seed)
		}
	}
}

// windowTwin is a machine under a scheduler with no threads: every
// quantum idles except for the traffic the test charges directly.
type windowTwin struct {
	m *numa.Machine
	s *sched.Scheduler
}

// restartBlocks is the size of the region the twins' traffic sweeps.
const restartBlocks = 256

func newWindowTwin() windowTwin {
	topo := numa.Opteron8387()
	// Thin pipes: any traffic congests, so the factors take tens of
	// refreshes to decay back to 1 once it stops.
	topo.HTBandwidth, topo.MemBandwidth = 1e7, 1e7
	m := numa.NewMachine(topo)
	m.Memory().Alloc(restartBlocks)
	return windowTwin{m: m, s: sched.New(m, sched.Config{Quantum: topo.SecondsToCycles(50e-6)})}
}

// traffic charges the i-th batch of a seeded access mix and ticks once.
func (tw windowTwin) traffic(i int) {
	cores := tw.m.Topology().TotalCores()
	for k, ra := range numa.RandomRanges(int64(i), restartBlocks)[:8] {
		core := numa.CoreID((i + k) % cores)
		tw.m.AccessRange(core, ra)
		tw.m.ChargeBusy(core, uint64(100*k))
	}
	tw.s.Tick()
}

// testWindowRestart drives two twin machines through the same history:
// 37 quanta of traffic (so a gap of 4 crosses the 1 ms refresh at quantum
// 40), an optional idle settle, an idle gap, and a tail of traffic. One
// twin skips the gap in one Scheduler.Advance and restarts its window at
// cycle at inside it; the other ticks every quantum of the gap and
// snapshots at at. The gap starts with the congestion factors still
// decaying, or after they have settled at 1.
func testWindowRestart(t *testing.T) {
	type start struct {
		name   string
		settle int
	}
	for _, st := range []start{{"decaying", 0}, {"steady", 3000}} {
		for _, gap := range []int{0, 1, 4, 10000} {
			offsets := []int{0, 1, 19, 20, 21, gap / 2, gap - 1, gap}
			if gap <= 4 {
				offsets = offsets[:0]
				for j := 0; j <= gap; j++ {
					offsets = append(offsets, j)
				}
			}
			for _, j := range offsets {
				label := fmt.Sprintf("%s gap %d restart at +%d", st.name, gap, j)
				jump, tick := newWindowTwin(), newWindowTwin()
				w := jump.m.NewCounterWindow()
				for i := 0; i < 37; i++ {
					jump.traffic(i)
					tick.traffic(i)
				}
				for i := 0; i < st.settle; i++ {
					jump.s.Tick()
					tick.s.Tick()
				}
				steady := jump.m.HTCongestion() == 1
				if steady != (st.settle > 0) {
					t.Fatalf("%s: HT congestion %v at the gap", label, jump.m.HTCongestion())
				}
				w.Advance()

				quantum := jump.s.Quantum()
				at := jump.m.Now() + uint64(j)*quantum
				jump.s.Advance(gap)
				var snap numa.Counters
				for i := 0; i <= gap; i++ {
					if i == j {
						snap = tick.m.Snapshot()
					}
					if i < gap {
						tick.s.Tick()
					}
				}
				if jump.s.IdleSkipped() != uint64(gap) {
					t.Fatalf("%s: the scheduler skipped %d of the %d idle quanta", label, jump.s.IdleSkipped(), gap)
				}
				w.Restart(at)

				for round := 0; round < 2; round++ {
					for i := 0; i < 25; i++ {
						jump.traffic(100 + 25*round + i)
						tick.traffic(100 + 25*round + i)
					}
					end := tick.m.Snapshot()
					if !reflect.DeepEqual(jump.m.Snapshot(), end) {
						t.Fatalf("%s round %d: the twins' counters diverged", label, round)
					}
					if got, want := w.Advance(), end.Sub(snap); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s round %d: window = %+v, Snapshot().Sub() = %+v", label, round, got, want)
					}
					snap = end
				}
			}
		}
	}
}
