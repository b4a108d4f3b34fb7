package sched

import (
	"sort"

	"elasticore/internal/numa"
)

// ref_test.go holds the reference scheduler loop the differentials in
// fastforward_test.go and proctable_test.go compare Tick, WakeAll,
// RunUntil and Advance against: every core through runCore every quantum
// (no idle skip), WakeAll by scanning the global thread table and sorting
// by TID, RunUntil and Advance one quantum at a time (no fast-forward).
// The references share runCore, Wake and balance with the scheduler; what
// they leave out is exactly the event-driven shortcuts under test.

// refTick is Tick without the idle-core skip.
func refTick(s *Scheduler) {
	s.tick++
	s.stats.TicksRun++
	start := s.machine.Now()
	s.machine.AdvanceTime(s.cfg.Quantum)
	for core := 0; core < s.topo.TotalCores(); core++ {
		s.runCore(numa.CoreID(core), start)
	}
	if s.tick%s.cfg.BalancePeriod == 0 {
		s.balance()
	}
}

// refWakeAll is WakeAll without the thread table: scan, sort, wake.
func refWakeAll(s *Scheduler, pid int) {
	var ids []TID
	for id, t := range s.threads {
		if t.PID == pid && t.state == Blocked {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s.Wake(s.threads[id])
	}
}

// refRunUntil is RunUntil without the idle fast-forward.
func refRunUntil(s *Scheduler, pred func() bool, maxCycles uint64) bool {
	deadline := s.machine.Now() + maxCycles
	for !pred() {
		if s.machine.Now() >= deadline {
			return false
		}
		refTick(s)
	}
	return true
}

// drive is the entry points a differential run goes through: the
// scheduler's own, or the references above (the reference Advance is n
// reference ticks: no idle skip at either level).
type drive struct {
	tick     func()
	wakeAll  func(pid int)
	runUntil func(pred func() bool, maxCycles uint64) bool
	advance  func(n int)
}

func driveOf(s *Scheduler, ref bool) drive {
	if !ref {
		return drive{s.Tick, s.WakeAll, s.RunUntil, s.Advance}
	}
	return drive{
		tick:     func() { refTick(s) },
		wakeAll:  func(pid int) { refWakeAll(s, pid) },
		runUntil: func(pred func() bool, max uint64) bool { return refRunUntil(s, pred, max) },
		advance: func(n int) {
			for ; n > 0; n-- {
				refTick(s)
			}
		},
	}
}
