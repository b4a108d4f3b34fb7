package db

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// beside.go runs the real computation of chunk kernels beside the model,
// on helper goroutines. A chunk task's simulated cost never reads what its
// kernel computes: chunkTask.Step charges each chunk's compute cycles and
// memory accesses from row counts and input headers alone, and only
// complete, after the last chunk, binds the kernel's output. The kernel is
// a pure function of inputs that are finished before its stage is lowered.
// So each partition's whole-range kernel becomes a job when its stage is
// lowered (Query.beside), a helper may run it while the simulation goes on,
// and the task joins it at the chunk that reaches its last row, before
// complete (job.join). Nothing the model computes can tell where or when a
// kernel ran.
//
// Buffers. A helper writes only into its job's kernel, the buffers the
// stage drew for that kernel at lowering (a projection's or a map's output,
// a group's partial table) and its own scratch; it never touches an
// engine's pool, so the pool sees the same draws in the same order on
// every run at every GOMAXPROCS. An output whose size only the kernel finds
// out (a selection's survivors, a fetch's payloads) is computed into
// scratch: a helper copies it into a result buffer of the helpers' own,
// and the join copies it into one pool buffer of its exact size class and
// hands the result buffer back. A job that runs at its join computes into
// its engine's scratch and is copied into the same pool buffer.
//
// The join. A job no helper has started is claimed and run by the joining
// goroutine; one a helper is running is waited for. A partition of fewer
// than handoffRows rows is never handed off: it runs at its join.
//
// Helpers. There are at most GOMAXPROCS-1 of them, process-wide, started as
// jobs are queued. A helper runs queued jobs until the queue is empty and
// then exits, so no helper outlives the work it was started for, and at
// GOMAXPROCS 1 every job runs at its join.

// handoffRows is the smallest partition whose kernel is handed to a
// helper: below it the hand-off costs about what the kernel does.
const handoffRows = 1024

// jobKernel is a kernel the engine runs as a job.
type jobKernel interface {
	// compute runs the kernel over its partition's whole range. It reads
	// its inputs and writes only its own fields, the buffers its stage
	// drew for it and s; it draws nothing from the engine's pool.
	compute(s *scratch)
	// unsized returns the fields that hold the outputs whose sizes only
	// compute finds out, backed by s when compute returns; nil for none.
	unsized() (ids, pays *[]int64)
}

// scratch is the room the jobs one goroutine runs compute their unsized
// outputs in. It grows to the largest partition the goroutine has run.
type scratch struct{ ids, pays []int64 }

// The states of a job. A job is held while no helper may take it: it was
// never queued (too small, or no helper allowed), or its joiner claimed it.
const (
	jobHeld uint32 = iota
	jobQueued
	jobRunning
	jobDone // a helper ran it; its unsized outputs are in result buffers
)

// job is one partition's kernel run beside the model. It lives in its
// task, in its stage's slab, which no later stage reuses before every job
// of the stage has been joined.
type job struct {
	k     jobKernel // nil: the task runs its kernel chunk by chunk
	eng   *Engine
	state atomic.Uint32
	// prev and next link a queued job into the helpers' queue.
	prev, next *job
}

// jobCounts counts where an engine's jobs ran: on a helper (waited for
// or not), or at their joins.
type jobCounts struct{ helper, join, waited int }

// An engine's handoff decides which of its jobs meet a helper. Only tests
// change it from handoffAuto: handoffAll hands every job to a helper,
// whatever its size and however many Ps there are, and its join waits;
// handoffNone runs every job at its join.
const (
	handoffAuto uint8 = iota
	handoffAll
	handoffNone
)

// helpers is the process-wide set of helper goroutines and the queue of
// jobs they serve, guarded by mu.
var helpers struct {
	mu         sync.Mutex
	head, tail *job
	// running counts the helpers alive; waiters the joiners waiting for a
	// helper to finish a job.
	running, waiters int
	// spare holds the scratch of helpers that exited, for the next ones.
	spare []*scratch
	// res holds the result buffers of unsized outputs, by size class;
	// lent counts those that jobs not joined yet hold.
	res  [poolClasses][][]int64
	lent int
}

// jobDoneCond is signalled when a helper finishes a job while a joiner
// waits.
var jobDoneCond = sync.NewCond(&helpers.mu)

// helperCap returns how many helpers may run now for a stage of an engine
// whose handoff is mode.
func helperCap(mode uint8) int {
	switch mode {
	case handoffNone:
		return 0
	case handoffAll:
		return max(runtime.GOMAXPROCS(0)-1, 1)
	}
	return runtime.GOMAXPROCS(0) - 1
}

// beside makes kernel k of task t, just planned for q, a job.
func (q *Query) beside(t *chunkTask, k jobKernel) { t.job.k, t.job.eng = k, q.eng }

// handOff queues the jobs of a stage's tasks, just planned, that are large
// enough to repay a hand-off, and starts helpers up to the cap. The other
// jobs, and every job when no helper is allowed, stay held, to run at
// their joins.
func handOff(tasks []Task) {
	h, n, queued := &helpers, 0, 0
	for _, tk := range tasks {
		t, ok := tk.(*chunkTask)
		if !ok || t.job.k == nil || t.hi-t.cursor < handoffRows && t.job.eng.handoff != handoffAll {
			continue
		}
		if queued == 0 {
			if n = helperCap(t.job.eng.handoff); n == 0 {
				return
			}
			h.mu.Lock()
		}
		queued++
		j := &t.job
		j.state.Store(jobQueued)
		j.prev = h.tail
		if h.tail != nil {
			h.tail.next = j
		} else {
			h.head = j
		}
		h.tail = j
	}
	if queued == 0 {
		return
	}
	start := max(min(n-h.running, queued), 0)
	h.running += start
	h.mu.Unlock()
	for range start {
		go serve()
	}
}

// unlink takes a queued job out of the queue; the caller holds mu.
func unlink(j *job) {
	h := &helpers
	if j.prev != nil {
		j.prev.next = j.next
	} else {
		h.head = j.next
	}
	if j.next != nil {
		j.next.prev = j.prev
	} else {
		h.tail = j.prev
	}
	j.prev, j.next = nil, nil
}

// serve is a helper: it runs queued jobs, oldest first, and exits when the
// queue is empty. A job's last touch is the store of jobDone, after which
// its joiner owns it again.
func serve() {
	h := &helpers
	h.mu.Lock()
	var s *scratch
	if n := len(h.spare); n > 0 {
		s = h.spare[n-1]
		h.spare[n-1] = nil
		h.spare = h.spare[:n-1]
	} else {
		s = new(scratch)
	}
	for j := h.head; j != nil; j = h.head {
		unlink(j)
		j.state.Store(jobRunning)
		h.mu.Unlock()
		j.k.compute(s)
		ids, pays := j.k.unsized()
		h.mu.Lock()
		for _, p := range [2]*[]int64{ids, pays} {
			if p != nil {
				*p = append(take(&h.res, len(*p), &h.lent), *p...)
			}
		}
		j.state.Store(jobDone)
		if h.waiters > 0 {
			jobDoneCond.Broadcast()
		}
	}
	h.running--
	h.spare = append(h.spare, s)
	h.mu.Unlock()
}

// join makes sure j has run, on a helper or here, and moves its unsized
// outputs into buffers of its engine's pool, drawn in the order the tasks
// complete whatever ran where. A queued job is claimed and run here (under
// handoffAll it is waited for); a running one is waited for.
func (j *job) join() {
	e, h := j.eng, &helpers
	st := j.state.Load()
	if st == jobQueued || st == jobRunning {
		h.mu.Lock()
		if st = j.state.Load(); st == jobQueued && e.handoff != handoffAll {
			unlink(j)
			j.state.Store(jobHeld)
			st = jobHeld
		} else if st != jobDone {
			e.jobs.waited++
			h.waiters++
			for j.state.Load() != jobDone {
				jobDoneCond.Wait()
			}
			h.waiters--
			st = jobDone
		}
		h.mu.Unlock()
	}
	if st == jobHeld {
		e.jobs.join++
		j.k.compute(&e.scratch)
	} else {
		e.jobs.helper++
	}
	ids, pays := j.k.unsized()
	var spent [2][]int64
	for i, p := range [2]*[]int64{ids, pays} {
		if p != nil {
			spent[i] = *p
			*p = append(e.pool.getI64(len(*p)), *p...)
		}
	}
	if st == jobDone && ids != nil {
		h.mu.Lock()
		for _, buf := range spent {
			give(&h.res, buf, &h.lent)
		}
		h.mu.Unlock()
	}
}
