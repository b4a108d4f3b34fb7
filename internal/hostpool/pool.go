// Package hostpool is the one set of host goroutines the simulator's work
// runs on beside its callers: a process-wide queue of intrusive jobs and
// at most GOMAXPROCS-1 workers, each of which exits after a bounded linger
// once the queue stays empty. Nothing deadlocks while a job joins only jobs
// it submitted itself: Join takes back a job no worker has taken, and
// waits only on a running one, which needs no goroutine but its own.
package hostpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// A Runner is the work of a job that a worker runs.
type Runner interface{ Run() }

// Job is one unit of work, embedded in its owner. Its owner sets Runner
// and Offload before it submits the job, and does not submit it again
// before its Join returns. The zero Job is held: not submitted.
type Job struct {
	Runner Runner
	// Offload keeps the job from its joiner, which waits for a worker to
	// run it, and makes the pool keep a worker for it even at GOMAXPROCS
	// 1. Only tests offload, to race a job against its submitter.
	Offload bool

	state      atomic.Uint32
	prev, next *Job // the queue's links while the job is queued
}

// The states of a job.
const (
	held uint32 = iota // not submitted, or taken back by its joiner
	queued
	running
	done // a worker ran it
)

// yieldEvery is how often, in polls, a lingering worker or a waiting Join
// yields its P, so that it waits on the run queue rather than in the way.
const yieldEvery = 1 << 8

// linger is how many times an idle worker polls the queue before it exits
// and a Join polls a running job before it sleeps. onStart, when set, is
// called with the count of workers alive as one starts. Only tests change
// them.
var (
	linger  = 1 << 16
	onStart func(alive int)
)

// pool is the queue, guarded by mu with alive, the count of workers. The
// queue's length, which lingering workers poll, is on a cache line apart
// from the lock's; idle counts the lingering workers and waiters the
// joins asleep until a worker finishes a job.
var pool struct {
	mu            sync.Mutex
	head, tail    *Job
	alive         int
	_             [64]byte
	queued        atomic.Int32
	idle, waiters atomic.Int32
}

// finished is signalled when a worker finishes a job while a join sleeps.
var finished = sync.NewCond(&pool.mu)

// Submit queues j for a worker and starts one if the queue outnumbers the
// idle workers and the cap allows another.
func Submit(j *Job) {
	p := &pool
	p.mu.Lock()
	j.state.Store(queued)
	if j.prev = p.tail; p.tail != nil {
		p.tail.next = j
	} else {
		p.head = j
	}
	p.tail = j
	start := p.queued.Add(1) > p.idle.Load()
	if start {
		workers := runtime.GOMAXPROCS(0) - 1
		if j.Offload {
			workers = max(workers, 1)
		}
		if start = p.alive < workers; start {
			p.alive++
			if onStart != nil {
				onStart(p.alive)
			}
		}
	}
	p.mu.Unlock()
	if start {
		go work()
	}
}

// Pending reports whether j is submitted and no worker has finished it
// yet: a Join now would take it back or wait for it.
func Pending(j *Job) bool {
	st := j.state.Load()
	return st == queued || st == running
}

// Join returns once no worker runs j or will, and reports whether a worker
// ran it; if none did, the caller runs it. A job no worker has taken is
// taken back, unless it is offloaded; one a worker runs is waited for, by
// polling for as long as a worker lingers and then asleep. j is held again
// when Join returns.
func Join(j *Job) (ran bool) {
	p := &pool
	st := j.state.Load()
	if st == queued && !j.Offload {
		p.mu.Lock()
		if st = j.state.Load(); st == queued {
			unlink(j)
			j.state.Store(held)
			st = held
		}
		p.mu.Unlock()
	}
	if st == held {
		return false
	}
	for spins := 0; j.state.Load() != done; spins++ {
		if spins%yieldEvery == yieldEvery-1 {
			runtime.Gosched()
		}
		if spins == linger {
			p.mu.Lock()
			p.waiters.Add(1)
			for j.state.Load() != done {
				finished.Wait()
			}
			p.waiters.Add(-1)
			p.mu.Unlock()
		}
	}
	j.state.Store(held)
	return true
}

// unlink takes a queued job out of the queue; the caller holds mu.
func unlink(j *Job) {
	p := &pool
	if j.prev != nil {
		j.prev.next = j.next
	} else {
		p.head = j.next
	}
	if j.next != nil {
		j.next.prev = j.prev
	} else {
		p.tail = j.prev
	}
	j.prev, j.next = nil, nil
	p.queued.Add(-1)
}

// work is a worker: it runs queued jobs, oldest first, and polls the queue
// for up to linger times after each, exiting once a whole linger finds it
// empty. A job's last touch is the store of done, after which its joiner
// owns it again.
func work() {
	p := &pool
	spins := 0
	p.mu.Lock()
	for {
		if j := p.head; j != nil {
			unlink(j)
			j.state.Store(running)
			p.mu.Unlock()
			j.Runner.Run()
			if j.state.Store(done); p.waiters.Load() > 0 {
				p.mu.Lock()
				finished.Broadcast()
				p.mu.Unlock()
			}
			spins = 0
		} else if spins >= linger {
			p.alive--
			p.mu.Unlock()
			return
		} else {
			p.mu.Unlock() // a joiner took back the job this worker saw
		}
		p.idle.Add(1)
		for ; spins < linger && p.queued.Load() == 0; spins++ {
			if spins%yieldEvery == yieldEvery-1 {
				runtime.Gosched()
			}
		}
		p.idle.Add(-1)
		p.mu.Lock()
	}
}

// A Group runs do(i) for every i of [0, n) exactly once, on the caller and
// on up to width-1 workers, each claiming items off one counter until none
// is left, so uneven items balance themselves. A Group is reused without
// allocating; it must not be copied after first use.
type Group struct {
	do   func(i int)
	n    int32
	next atomic.Int32
	jobs []Job
}

// Each runs do over [0, n) with at most width goroutines and returns once
// every item is done.
func (g *Group) Each(n, width int, do func(i int)) {
	g.do, g.n = do, int32(n)
	g.next.Store(0)
	if w := max(min(width, n)-1, 0); cap(g.jobs) < w {
		g.jobs = make([]Job, w)
	} else {
		g.jobs = g.jobs[:w]
	}
	for i := range g.jobs {
		g.jobs[i].Runner = g
		Submit(&g.jobs[i])
	}
	g.Run()
	for i := range g.jobs {
		Join(&g.jobs[i])
	}
}

// Run is the work of the group's jobs: it claims items until none is left.
func (g *Group) Run() {
	for i := g.next.Add(1) - 1; i < g.n; i = g.next.Add(1) - 1 {
		g.do(int(i))
	}
}
