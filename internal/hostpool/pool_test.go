package hostpool

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// stressJob is a job whose run submits and joins jobs of its own, as a
// fleet machine does with its kernel jobs.
type stressJob struct {
	Job
	runs     atomic.Int32
	joins    int32 // written by the submitter alone
	children []stressJob
}

func (s *stressJob) Run() { s.do() }

// do is the job's work: count the run, then submit every child and join
// each, running the ones no worker took.
func (s *stressJob) do() {
	s.runs.Add(1)
	for i := range s.children {
		c := &s.children[i]
		c.Runner = c
		Submit(&c.Job)
	}
	// Join in reverse, so that the children still queued are taken back
	// before the ones a worker runs are waited for.
	for i := len(s.children) - 1; i >= 0; i-- {
		joinOne(&s.children[i])
	}
}

// joinOne joins s and runs it if no worker did. A worker's run must be
// over when Join says so, and there must have been none when it says not.
func joinOne(s *stressJob) {
	ran := Join(&s.Job)
	if got := s.runs.Load(); ran && got != 1 || !ran && got != 0 {
		panic(fmt.Sprintf("Join reported a worker run %v with %d runs done", ran, got))
	}
	if !ran {
		s.do()
	}
	s.joins++
}

// tree returns width jobs, each with width children, depth levels deep.
func tree(width, depth int) []stressJob {
	jobs := make([]stressJob, width)
	if depth > 1 {
		for i := range jobs {
			jobs[i].children = tree(width, depth-1)
		}
	}
	return jobs
}

// checkOnce fails t for a job of jobs, or below, that did not run and join
// exactly once, and returns how many there are.
func checkOnce(t *testing.T, jobs []stressJob) int {
	t.Helper()
	n := 0
	for i := range jobs {
		s := &jobs[i]
		if s.runs.Load() != 1 || s.joins != 1 {
			t.Fatalf("a job ran %d times and was joined %d times", s.runs.Load(), s.joins)
		}
		n += 1 + checkOnce(t, s.children)
	}
	return n
}

// TestPoolStress submits rounds of nested jobs at GOMAXPROCS 1, 2 and 4,
// with the linger budget at 0 and at 1, so that workers exit and start
// again while jobs are submitted, taken back and waited for. Every job must
// run exactly once and be joined exactly once, no more than GOMAXPROCS-1
// workers may ever be alive, and they must be gone shortly after the last
// round.
func TestPoolStress(t *testing.T) {
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	// The workers read linger and onStart between their locks of the
	// pool, so the test writes them under the lock.
	set := func(budget int, hook func(alive int)) {
		pool.mu.Lock()
		linger, onStart = budget, hook
		pool.mu.Unlock()
	}
	oldLinger := linger
	t.Cleanup(func() { set(oldLinger, nil) })
	var peak atomic.Int32
	hook := func(alive int) {
		if int32(alive) > peak.Load() {
			peak.Store(int32(alive))
		}
	}
	for _, procs := range []int{1, 2, 4} {
		for _, budget := range []int{0, 1} {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/linger=%d", procs, budget), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				baseline := runtime.NumGoroutine()
				set(budget, hook)
				peak.Store(0)
				jobs := 0
				for range rounds {
					root := stressJob{children: tree(3, 3)}
					root.do()
					jobs += checkOnce(t, root.children)
				}
				if p := int(peak.Load()); p > procs-1 {
					t.Errorf("%d workers alive at once, want at most %d", p, procs-1)
				}
				t.Logf("%d jobs; at most %d workers alive at once", jobs, peak.Load())
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > baseline {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines alive, baseline %d: a worker outlived its work", runtime.NumGoroutine(), baseline)
					}
					runtime.Gosched()
				}
			})
		}
	}
}
