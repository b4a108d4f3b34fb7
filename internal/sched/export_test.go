package sched

import "elasticore/internal/numa"

// export_test.go holds the accessors only this package's tests read.

// QueueLengths returns the current run-queue length per core.
func (s *Scheduler) QueueLengths() []int {
	out := make([]int, len(s.queues))
	for i := range s.queues {
		out[i] = s.queues[i].Len()
	}
	return out
}

// CoreSlowdown reports the core's live cycle-cost multiplier.
func (s *Scheduler) CoreSlowdown(core numa.CoreID) uint64 {
	if s.slow == nil {
		return 1
	}
	return s.slow[int(core)]
}

// LiveThreads returns the number of threads not yet Done.
func (s *Scheduler) LiveThreads() int { return len(s.threads) }
