package db

import (
	"sync"

	"elasticore/internal/hostpool"
)

// beside.go runs the real computation of chunk kernels beside the model,
// on the host pool's workers (internal/hostpool). A chunk task's simulated
// cost never reads what its kernel computes: chunkTask.Step charges each
// chunk's compute cycles and memory accesses from row counts and input
// headers alone, and only complete, after the last chunk, binds the
// kernel's output. The kernel is a pure function of inputs that are
// finished before its stage is lowered. So each partition's whole-range
// kernel becomes a job when its stage is lowered (Query.beside), a worker
// may run it while the simulation goes on, and the task joins it at the
// chunk that reaches its last row, before complete (job.join). Nothing the
// model computes can tell where or when a kernel ran.
//
// Buffers. A worker writes only into its job's kernel, the buffers the
// stage drew for that kernel at lowering (a projection's or a map's output,
// a group's partial table) and a borrowed scratch; it never touches an
// engine's pool, so the pool sees the same draws in the same order on
// every run at every GOMAXPROCS. An output whose size only the kernel finds
// out (a selection's survivors, a fetch's payloads) is computed into
// scratch: a worker copies it into a result buffer, and the join copies it
// into one pool buffer of its exact size class and hands the result buffer
// back. A job that runs at its join computes into its engine's scratch and
// is copied into the same pool buffer.
//
// The join is hostpool.Join: a job no worker has started is taken back and
// run by the joining goroutine, one a worker runs is waited for.

// handoffRows is the smallest partition whose kernel is handed to the
// pool: below it the hand-off costs about what the kernel does.
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

// scratch is where jobs compute their unsized outputs: an engine's at the
// join, one from workerScratch on a worker. It grows to the largest run.
type scratch struct{ ids, pays []int64 }

// job is one partition's kernel run beside the model. It lives in its
// task, in its stage's slab, which no later stage reuses before every job
// of the stage has been joined.
type job struct {
	hostpool.Job
	k   jobKernel // nil: the task runs its kernel chunk by chunk
	eng *Engine
}

// jobCounts counts where an engine's jobs ran: on a worker (waited for
// or not), or at their joins.
type jobCounts struct{ worker, join, waited int }

// An engine's handoff decides which of its jobs meet a worker. Only tests
// change it from handoffAuto: handoffAll offloads every job, whatever its
// size and however many Ps there are, and its join waits; handoffNone runs
// every job at its join.
const (
	handoffAuto uint8 = iota
	handoffAll
	handoffNone
)

// workerScratch holds the scratch of the workers' runs of jobs.
var workerScratch = sync.Pool{New: func() any { return new(scratch) }}

// results is the pool of the result buffers of unsized outputs.
var results struct {
	sync.Mutex
	bufPool
}

// beside makes kernel k of task t, just planned for q, a job.
func (q *Query) beside(t *chunkTask, k jobKernel) { t.job.k, t.job.eng = k, q.eng }

// handOff submits the jobs of a stage's tasks, just planned, that are large
// enough to repay a hand-off. The other jobs stay held, to run at their
// joins.
func handOff(tasks []Task) {
	for _, tk := range tasks {
		t, ok := tk.(*chunkTask)
		if !ok || t.job.k == nil || t.job.eng.handoff == handoffNone {
			continue
		}
		if t.job.Offload = t.job.eng.handoff == handoffAll; t.job.Offload || t.hi-t.cursor >= handoffRows {
			t.job.Runner = &t.job
			hostpool.Submit(&t.job.Job)
		}
	}
}

// Run runs j's kernel on a worker, into a scratch of the workers', and
// copies its unsized outputs into result buffers.
func (j *job) Run() {
	s := workerScratch.Get().(*scratch)
	j.k.compute(s)
	if ids, pays := j.k.unsized(); ids != nil {
		results.Lock()
		for _, p := range [2]*[]int64{ids, pays} {
			if p != nil {
				*p = append(results.getI64(len(*p)), *p...)
			}
		}
		results.Unlock()
	}
	workerScratch.Put(s)
}

// join makes sure j has run, on a worker or here, and moves its unsized
// outputs into buffers of its engine's pool, drawn in the order the tasks
// complete whatever ran where.
func (j *job) join() {
	e := j.eng
	pending := hostpool.Pending(&j.Job)
	onWorker := hostpool.Join(&j.Job)
	if !onWorker {
		e.jobs.join++
		j.k.compute(&e.scratch)
	} else if e.jobs.worker++; pending {
		e.jobs.waited++
	}
	ids, pays := j.k.unsized()
	var spent [2][]int64
	for i, p := range [2]*[]int64{ids, pays} {
		if p != nil {
			spent[i] = *p
			*p = append(e.pool.getI64(len(*p)), *p...)
		}
	}
	if onWorker && ids != nil {
		results.Lock()
		for _, buf := range spent {
			results.putI64(buf)
		}
		results.Unlock()
	}
}
