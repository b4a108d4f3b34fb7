package sched

import "elasticore/internal/numa"

// TID identifies a kernel thread in the simulation.
type TID int

// State is a thread's scheduling state.
type State int

const (
	// Runnable threads sit on a run queue waiting for a quantum.
	Runnable State = iota
	// Running threads hold a core during the current quantum.
	Running
	// Blocked threads wait for work (an empty task queue); they consume
	// no CPU and are skipped by the balancer.
	Blocked
	// Done threads have finished and are removed at the next tick.
	Done
)

// String implements fmt.Stringer for State.
func (s State) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	}
	return "unknown"
}

// ExecContext is what a Runner sees while executing on a core: the machine
// to charge accesses to and the identity of the executing thread.
type ExecContext struct {
	Machine *numa.Machine
	Core    numa.CoreID
	PID     int
	TID     TID
}

// AccessRange charges a contiguous run of blocks on the executing core in
// one call (see numa.Machine.AccessRange) and returns its cycle cost.
func (ctx *ExecContext) AccessRange(r numa.RangeAccess) uint64 {
	if r.PID == 0 {
		r.PID = ctx.PID
	}
	return ctx.Machine.AccessRange(ctx.Core, r).Cycles
}

// Runner is the work a thread executes. Run consumes up to budget cycles
// and reports the cycles actually used and the thread's next state:
//
//   - used > 0, done=false, blocked=false: still runnable (requeue)
//   - blocked=true: no work available right now (e.g. empty task queue)
//   - done=true: thread exits
type Runner interface {
	Run(ctx *ExecContext, budget uint64) (used uint64, blocked, done bool)
}

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc func(ctx *ExecContext, budget uint64) (used uint64, blocked, done bool)

// Run implements Runner.
func (f RunnerFunc) Run(ctx *ExecContext, budget uint64) (uint64, bool, bool) {
	return f(ctx, budget)
}

// Recycler is a Runner that holds the last pointer to the record of a
// thread it ran as before. Spawn reinitialises that record, which must be
// Done, instead of allocating one: the new thread gets a fresh TID, slot
// and placement, so nothing simulated tells the two apart. A record whose
// pointer anyone else kept (to read Lifespan after exit, say) must not be
// handed back. Recycled returns nil when there is no record to reuse.
type Recycler interface {
	Runner
	Recycled() *Thread
}

// Thread is one schedulable entity. The fields a wake-up and a re-park
// read and write come first, so they share the record's first cache line.
type Thread struct {
	state State
	core  numa.CoreID // current queue assignment
	// proc and slot locate the thread in its process's thread table
	// (slot moves when the table compacts).
	proc *procTable
	slot int
	// pinned, when non-zero, is a hard affinity mask the balancer must
	// respect (pthread_setaffinity_np / NUMA-aware DBMS pinning).
	pinned CPUSet
	// gate, when set, tells runCore whether the thread has anything to do
	// (Gated).
	gate *Gate
	// woken is set by Wake and cleared when the thread next runs; it
	// lets that first slice be classified as a spurious wake-up.
	woken bool

	ID  TID
	PID int // process the thread belongs to (cgroup membership key)
	// Name is the diagnostic label run-slice events carry, e.g. "worker3"
	// or "q12-w3". It is read only by a lit bus, so a spawner whose
	// scheduler is dark may leave it empty rather than format it.
	Name string

	runner Runner
	// spawnHint biases initial placement toward a node (fork-local
	// placement); NoNode means none.
	spawnHint numa.NodeID

	spawned uint64 // virtual time of creation, cycles
	exited  uint64 // virtual time of exit, cycles (valid when state == Done)
}

// State returns the thread's scheduling state.
func (t *Thread) State() State { return t.state }

// Pinned returns the thread's hard-affinity mask (zero = none).
func (t *Thread) Pinned() CPUSet { return t.pinned }
