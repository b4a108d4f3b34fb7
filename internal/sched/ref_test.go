package sched

import (
	"sort"

	"elasticore/internal/numa"
	"elasticore/internal/obs"
)

// ref_test.go holds the reference scheduler loop the differentials in
// fastforward_test.go and proctable_test.go compare Tick, WakeAll,
// RunUntil and Advance against: every core through refRunCore every
// quantum (no idle skip), WakeAll by scanning the global thread table and
// sorting by TID, RunUntil and Advance one quantum at a time (no
// fast-forward). refRunCore calls every popped thread's Run (no gate) and
// steals through refIdleSteal's plain scan (no cache). The references
// share Wake, balance and the queue helpers with the scheduler; what they
// leave out is exactly the event-driven shortcuts under test.

// refTick is Tick without the idle-core skip.
func refTick(s *Scheduler) {
	s.ticked++
	start := s.machine.Now()
	s.machine.AdvanceTime(s.cfg.Quantum)
	for core := 0; core < s.topo.TotalCores(); core++ {
		refRunCore(s, numa.CoreID(core), start)
	}
	if s.ticksRun()%balancePeriod == 0 {
		s.balance()
	}
}

// refRunCore is runCore without the gate: a woken thread runs whatever
// its gate says, and its empty slice is what counts it spurious.
func refRunCore(s *Scheduler, core numa.CoreID, start uint64) {
	if s.queues[core].Len() == 0 {
		refIdleSteal(s, core)
	}
	factor := uint64(1)
	if s.slow != nil {
		factor = s.slow[core]
	}
	budget := s.cfg.Quantum
	guard := s.queues[core].Len() + 1
	for budget > 0 && guard > 0 {
		guard--
		if s.queues[core].Len() == 0 {
			break
		}
		avail := budget
		if factor > 1 {
			if avail = budget / factor; avail == 0 {
				break
			}
		}
		t := s.popFront(core)
		if t.state == Done {
			continue
		}
		t.state = Running
		woken := t.woken
		t.woken = false
		ctx := s.sliceCtx(core, t)
		used, blocked, done := t.runner.Run(ctx, avail)
		if used > avail {
			used = avail
		}
		wall := used * factor
		if used > 0 {
			s.machine.ChargeBusy(core, wall)
			if s.bus != nil {
				sliceStart := start + (s.cfg.Quantum - budget)
				s.bus.Publish(obs.Event{
					Kind:  obs.KindRunSlice,
					Now:   sliceStart + wall,
					TID:   int64(t.ID),
					Core:  int32(core),
					Start: sliceStart,
					Dur:   wall,
					Label: t.Name,
				})
			}
		}
		budget -= wall
		switch {
		case done:
			t.state = Done
			t.exited = s.machine.Now() + (s.cfg.Quantum - budget)
			delete(s.threads, t.ID)
			t.proc.remove(t)
		case blocked:
			if woken && used == 0 {
				s.stats.SpuriousWakeups++
			}
			t.state = Blocked
			s.blockThread(t)
		default:
			t.state = Runnable
			s.pushBack(core, t)
			if used == 0 {
				budget = 0
			}
		}
	}
}

// refIdleSteal is idleSteal without the cache: scan every queue for the
// busiest, then its threads for the first allowed on the idle core.
func refIdleSteal(s *Scheduler, core numa.CoreID) {
	busiest, busiestLen := numa.CoreID(-1), 1
	for c := range s.queues {
		if l := s.queues[c].Len(); l > busiestLen {
			busiest, busiestLen = numa.CoreID(c), l
		}
	}
	if busiest < 0 {
		return
	}
	for i := 0; i < s.queues[busiest].Len(); i++ {
		t := s.queues[busiest].At(i)
		if !s.allowedSet(t).Contains(core) {
			continue
		}
		s.removeAt(busiest, i)
		s.stats.StolenTasks++
		if s.topo.NodeOf(busiest) != s.topo.NodeOf(core) {
			s.machine.DropCoreAffinity(core)
		}
		s.recordMigration(t, core)
		s.pushBack(core, t)
		return
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
