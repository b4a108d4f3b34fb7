package db

import (
	"slices"

	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// Task is one partition of one operator: the unit dispatched to worker
// threads. Step consumes up to budget cycles and reports progress; tasks
// are resumable across scheduler quanta.
type Task interface {
	// Step runs on the worker's current core. used may slightly exceed
	// budget when a chunk cannot be split (the scheduler clamps).
	Step(ctx *sched.ExecContext, budget uint64) (used uint64, done bool)
	// Op returns the operator label, e.g. "algebra.thetasubselect"
	// (tomograph traces).
	Op() string
	// PreferredNode returns the node the task's input data lives on, or
	// numa.NoNode (NUMA-aware dispatch hint).
	PreferredNode() numa.NodeID
}

// kernel is what a chunkTask drives: the operator of one partition, which
// lives beside the task in its stage's slab (slot, operators.go).
type kernel interface {
	// runRange runs the real computation for rows [a, b).
	runRange(a, b int)
	// complete runs once, after the last chunk: it fills the partition's
	// output header(s) in place — whose binding owns the pooled buffers
	// behind them from then on — and returns the BATs to charge as written
	// (their regions get homed here), nil for none.
	complete() (out, out2 *BAT)
}

// maxInputs is the most BATs a chunkTask charges per chunk (the fused Q6
// kernel reads four columns).
const maxInputs = 4

// chunkTask is the shared implementation of partition tasks: it walks its
// rows in chunks, charging simulated accesses on the inputs, then
// materializes its output with write accesses on the executing core (first
// touch places the intermediate where it was produced). The real
// computation runs chunk by chunk beside the charges, or, for a task the
// engine lowered with a job, as one job beside the model (beside.go),
// joined before the output is bound. It holds no closure and no slice of
// its own, so a stage's tasks are one array.
type chunkTask struct {
	op     string
	k      kernel
	inputs [maxInputs]*BAT // charged per chunk; the unused tail is nil
	chunk  int             // rows per step iteration

	cursor, hi     int // rows [cursor, hi) are still to do
	cyclesPerTuple uint64
	pref           numa.NodeID

	// cand and col, set by gather operators, charge the underlying column
	// col for the id range each chunk of candidate fragment cand covers.
	cand, col *BAT

	// job, when its kernel is set, runs the computation: the chunk loop
	// only charges, and the last chunk joins the job before complete.
	job job

	finished bool
	// debt carries cycles owed beyond the last quantum's budget: a chunk
	// is atomic, so its overshoot is paid down across subsequent quanta.
	// Without this, congestion-stretched access costs would be silently
	// truncated at the quantum boundary and bandwidth limits would not
	// bind.
	debt uint64
}

// init sets up a zero task (a fresh slab's are) in place over rows
// [lo, hi) of inputs, with a default chunk of one placement block worth of
// rows.
func (t *chunkTask) init(op string, machine *numa.Machine, k kernel, lo, hi int, cyclesPerTuple uint64, inputs ...*BAT) {
	topo := machine.Topology()
	t.op, t.k = op, k
	t.hi, t.cursor = hi, lo
	t.chunk = max(topo.BlockBytes/valueBytes, 1)
	t.cyclesPerTuple = cyclesPerTuple
	t.pref = numa.NoNode
	if copy(t.inputs[:], inputs) < len(inputs) {
		panic("db: chunkTask over more than maxInputs inputs")
	}
	// Dispatch hint: the home of the first input's first block.
	for _, in := range inputs {
		if in == nil || in.Len() == 0 {
			continue
		}
		if n := in.HomeOfRow(machine.Memory(), topo.BlockBytes, lo); n != numa.NoNode {
			t.pref = n
			break
		}
	}
}

// gathers is init for a gather operator over candidate fragment cand,
// whose task additionally charges the underlying column col.
func (t *chunkTask) gathers(op string, q *Query, k kernel, cand, col *BAT, cyclesPerTuple uint64) {
	t.init(op, q.Machine(), k, 0, cand.Len(), cyclesPerTuple, cand)
	t.cand, t.col = cand, col
}

// Op implements Task.
func (t *chunkTask) Op() string { return t.op }

// PreferredNode implements Task.
func (t *chunkTask) PreferredNode() numa.NodeID { return t.pref }

// Step implements Task.
func (t *chunkTask) Step(ctx *sched.ExecContext, budget uint64) (uint64, bool) {
	var used uint64
	if t.debt > 0 {
		if t.debt >= budget {
			t.debt -= budget
			return budget, false
		}
		used = t.debt
		t.debt = 0
	}
	for used < budget && t.cursor < t.hi {
		n := min(t.chunk, t.hi-t.cursor)
		cost := uint64(n) * t.cyclesPerTuple
		for _, in := range &t.inputs {
			if in != nil && in.Len() > 0 {
				if lo, hi := t.cursor, min(t.cursor+n, in.Len()); lo < hi {
					cost += in.chargeRange(ctx, lo, hi, false)
				}
			}
		}
		if t.cand != nil {
			cost += chargeGathered(ctx, t.cand, t.col, t.cursor, t.cursor+n)
		}
		if t.job.k == nil {
			t.k.runRange(t.cursor, t.cursor+n)
		}
		t.cursor += n
		used += cost
	}
	if t.cursor >= t.hi && !t.finished {
		t.finished = true
		if t.job.k != nil {
			t.job.join()
		}
		out, out2 := t.k.complete()
		for _, w := range [2]*BAT{out, out2} {
			if w != nil && w.Len() > 0 {
				used += w.chargeRange(ctx, 0, w.Len(), true)
			}
		}
	}
	if used > budget {
		t.debt = used - budget
		used = budget
	}
	return used, t.finished && t.debt == 0
}

// chargeGathered charges column col for the id range that positions
// [a, b) of the (ascending) candidate fragment cand cover.
func chargeGathered(ctx *sched.ExecContext, cand, col *BAT, a, b int) uint64 {
	if b = min(b, cand.Len()); a >= b {
		return 0
	}
	if cand.n > 0 {
		return col.chargeRange(ctx, cand.seq+a, cand.seq+b, false)
	}
	return col.chargeRange(ctx, int(cand.I[a]), int(cand.I[b-1])+1, false)
}

// partitionRanges splits n rows into at most parts contiguous ranges of
// near-equal size, each at least minRows (except possibly the only one),
// and writes them over out.
func partitionRanges(out [][2]int, n, parts, minRows int) [][2]int {
	out = out[:0]
	if n <= 0 {
		return append(out, [2]int{0, 0})
	}
	if parts < 1 {
		parts = 1
	}
	if minRows < 1 {
		minRows = 1
	}
	maxParts := n / minRows
	if maxParts < 1 {
		maxParts = 1
	}
	if parts > maxParts {
		parts = maxParts
	}
	out = slices.Grow(out, parts)
	base := n / parts
	extra := n % parts
	lo := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out
}
