package sched

import (
	"fmt"
	"testing"

	"elasticore/internal/faults"
	"elasticore/internal/numa"
)

// clock_test.go pins the one count of elapsed time: the machine's clock.
// Every core's busy and idle cycles sum to it, and the scheduler's quanta
// are read off it, whichever way the scheduler got there — Tick, Advance's
// idle skip or RunUntil's fast-forward — and whatever a core's threads did
// with their slices.

// stall stays runnable without making progress for calls slices, then
// exits: runCore's zero-progress branch, which idles the rest of the
// quantum.
type stall struct{ calls int }

func (w *stall) Run(_ *ExecContext, _ uint64) (uint64, bool, bool) {
	w.calls--
	return 0, false, w.calls <= 0
}

// checkClock requires every core of s's machine to read busy + idle equal
// to the elapsed clock, and the scheduler's quanta to be the clock's.
func checkClock(t *testing.T, label string, s *Scheduler) {
	t.Helper()
	elapsed := s.Machine().Now()
	for c, cc := range s.Machine().Snapshot().Cores {
		if cc.BusyCycles+cc.IdleCycles != elapsed {
			t.Fatalf("%s: core %d reads busy %d + idle %d = %d, want the elapsed %d",
				label, c, cc.BusyCycles, cc.IdleCycles, cc.BusyCycles+cc.IdleCycles, elapsed)
		}
	}
	q := s.Quantum()
	ticks := s.Stats().TicksRun
	if elapsed%q != 0 || ticks != elapsed/q {
		t.Fatalf("%s: TicksRun %d, want the elapsed %d cycles in quanta of %d", label, ticks, elapsed, q)
	}
	if s.Ticked()+s.IdleSkipped() != ticks {
		t.Fatalf("%s: Ticked %d + IdleSkipped %d, want TicksRun %d", label, s.Ticked(), s.IdleSkipped(), ticks)
	}
}

// TestCoreCyclesSumToTheClock drives a scheduler with a frozen core, a
// slowed core and a thread that stays runnable with zero progress through
// Tick, Advance and RunUntil, and checks the clock after every step. Each
// case ends idle, so Advance and RunUntil also skip.
func TestCoreCyclesSumToTheClock(t *testing.T) {
	cases := []struct {
		name  string
		setup func(s *Scheduler)
		// thaw ends whatever keeps the case's threads from finishing.
		thaw func(s *Scheduler)
	}{
		{
			name: "frozen core",
			setup: func(s *Scheduler) {
				s.SetCoreSlowdown(3, faults.StallFactor)
				s.SetCoreSlowdown(5, 3)
				for _, c := range []numa.CoreID{3, 3, 5, 9} {
					s.Spawn(1, "w", &fixedWork{remaining: 5*s.Quantum() + 17}, Pinned(NewCPUSet(c)))
				}
			},
			thaw: func(s *Scheduler) { s.SetCoreSlowdown(3, 1) },
		},
		{
			name: "zero progress",
			setup: func(s *Scheduler) {
				s.Spawn(1, "stall", &stall{calls: 40}, Pinned(NewCPUSet(2)))
				// A thread that works part of a slice before the stall's
				// turn on the same core, and one that keeps core 7 busy.
				s.Spawn(1, "w", &fixedWork{remaining: 3*s.Quantum()/2 + 5}, Pinned(NewCPUSet(2)))
				s.Spawn(1, "w", &fixedWork{remaining: 6 * s.Quantum()}, Pinned(NewCPUSet(7)))
			},
			thaw: func(*Scheduler) {},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestSched()
			tc.setup(s)
			checkClock(t, "start", s)
			for i := 0; i < 6; i++ {
				s.Tick()
				checkClock(t, fmt.Sprintf("tick %d", i), s)
			}
			s.Advance(5)
			checkClock(t, "advance 5", s)
			s.RunUntil(func() bool { return false }, 4*s.Quantum())
			checkClock(t, "run until a limit", s)
			tc.thaw(s)
			if !s.RunUntil(s.Idle, 200*s.Quantum()) {
				t.Fatal("the threads never finished")
			}
			checkClock(t, "run until idle", s)
			skipped := s.IdleSkipped()
			s.Advance(9)
			checkClock(t, "idle advance 9", s)
			s.RunUntil(func() bool { return false }, 12345*s.Quantum()/10)
			checkClock(t, "idle run until a limit", s)
			s.Tick()
			checkClock(t, "idle tick", s)
			if s.IdleSkipped() < skipped+9+1234 {
				t.Fatalf("IdleSkipped went %d → %d; the idle stretches were not skipped", skipped, s.IdleSkipped())
			}
			var busy uint64
			for _, cc := range s.Machine().Snapshot().Cores {
				busy += cc.BusyCycles
			}
			if busy == 0 {
				t.Fatal("no core was ever busy")
			}
		})
	}
}
