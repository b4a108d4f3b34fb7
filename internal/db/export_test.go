package db

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"runtime"
	"slices"
	"unsafe"

	"elasticore/internal/hashmix"
	"elasticore/internal/hostpool"
)

// export_test.go holds the pool checks the tests of this package share, and
// opens them, with a query's results, to reuse_test.go: that test loads
// TPC-H data, and tpch imports db, so it is an external test.

// poolAtRest reports an engine whose pool is not at rest: a buffer or
// table still lent out, a backing array or table filed twice — that one
// would back two intermediates of later queries at once — or a buffer whose
// backing array lies in a base column of the engine's store or in a list
// its recycler keeps, which a later stage would write over.
func poolAtRest(e *Engine) error {
	p := &e.pool
	if p.lent != 0 {
		return fmt.Errorf("%d buffers and tables are still lent out", p.lent)
	}
	seen := map[any]string{}
	once := func(kind string, key any) error {
		if seen[key] != "" {
			return fmt.Errorf("an %s is filed in the pool twice", kind)
		}
		seen[key] = kind
		return nil
	}
	var base [][2]uintptr
	if e.store != nil {
		for _, tb := range e.store.tables {
			for _, c := range tb.cols {
				base = append(base, extent(c.I), extent(c.F))
			}
		}
	}
	var kept [][2]uintptr
	for _, list := range recycledLists(e) {
		kept = append(kept, extent(list))
	}
	owned := func(kind string, key any, ext [2]uintptr) error {
		for _, b := range base {
			if ext[0] < b[1] && b[0] < ext[1] {
				return fmt.Errorf("an %s in the pool lies in a base column", kind)
			}
		}
		for _, b := range kept {
			if ext[0] < b[1] && b[0] < ext[1] {
				return fmt.Errorf("an %s in the pool lies in a recycled list", kind)
			}
		}
		return once(kind, key)
	}
	for _, bucket := range p.i64 {
		for _, buf := range bucket {
			if err := owned("int64 backing array", unsafe.SliceData(buf), extent(buf)); err != nil {
				return err
			}
		}
	}
	for _, bucket := range p.f64 {
		for _, buf := range bucket {
			if err := owned("float64 backing array", unsafe.SliceData(buf), extent(buf)); err != nil {
				return err
			}
		}
	}
	for _, m := range p.mif {
		if err := once("i64fMap", m); err != nil {
			return err
		}
	}
	for _, m := range p.mii {
		if err := once("i64Map", m); err != nil {
			return err
		}
	}
	return nil
}

// extent is the address range of buf's backing array up to its capacity.
func extent[T any](buf []T) [2]uintptr {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return [2]uintptr{lo, lo + uintptr(cap(buf))*unsafe.Sizeof(*new(T))}
}

// BaseHashes returns the FNV-1a hash of every base column of e's store, by
// table.column.
func BaseHashes(e *Engine) map[string]uint64 {
	out := map[string]uint64{}
	for tn, tb := range e.store.tables {
		for cn, c := range tb.cols {
			h := fnv.New64a()
			binary.Write(h, binary.LittleEndian, c.I)
			binary.Write(h, binary.LittleEndian, c.F)
			out[tn+"."+cn] = h.Sum64()
		}
	}
	return out
}

// stockPool files n int64 and n float64 buffers of random capacities in
// [1, maxCap] in the pool, as if earlier queries had returned them, their
// whole capacity poisoned: a query that read a recycled buffer past what it
// wrote would read these values. Stocking lends nothing.
func stockPool(p *bufPool, seed uint64, n, maxCap int) {
	rng := hashmix.Stream{State: seed}
	for range n {
		ci, cf := 1+int(rng.Next()%uint64(maxCap)), 1+int(rng.Next()%uint64(maxCap))
		bi, bf := make([]int64, ci), make([]float64, cf)
		for k := range bi {
			bi[k] = -0x5a5a5a5a5a5a5a5b
		}
		for k := range bf {
			bf[k] = math.NaN()
		}
		p.i64[class(ci)] = append(p.i64[class(ci)], bi[:0])
		p.f64[class(cf)] = append(p.f64[class(cf)], bf[:0])
	}
}

// PoolAtRest is poolAtRest.
func PoolAtRest(e *Engine) error { return poolAtRest(e) }

// StockPool is stockPool over e's pool.
func StockPool(e *Engine, seed uint64, n, maxCap int) { stockPool(&e.pool, seed, n, maxCap) }

// Results returns what a finished query still holds, by name: its scalars
// and the values of its bound variables, copied out, so they stay readable
// once the query's body serves another query.
func Results(q *Query) (scalars map[string]float64, ints map[string][]int64, floats map[string][]float64) {
	ints, floats = map[string][]int64{}, map[string][]float64{}
	for name, ps := range q.vars {
		ints[name], floats[name] = ps.FlattenI64(), ps.FlattenF64()
	}
	return maps.Clone(q.scalars), ints, floats
}

// recycledLists returns the array of every entry e's recycler holds, in
// lineage order.
func recycledLists(e *Engine) [][]int64 {
	if e.rec == nil {
		return nil
	}
	held := make([][]int64, len(e.rec.keys)+1)
	for _, en := range e.rec.keys {
		if en.state == entryHeld {
			held[en.id] = en.lists
		}
	}
	return slices.DeleteFunc(held, func(l []int64) bool { return l == nil })
}

// RecycledHashes returns the FNV-1a hash of every list e's recycler holds,
// by the address of its array.
func RecycledHashes(e *Engine) map[*int64]uint64 {
	out := map[*int64]uint64{}
	for _, list := range recycledLists(e) {
		h := fnv.New64a()
		binary.Write(h, binary.LittleEndian, list)
		out[unsafe.SliceData(list)] = h.Sum64()
	}
	return out
}

// ClearRecycler empties e's recycler: the next selection starts a new one.
// A query in flight fills into the old one, and the lineages its outputs
// carry may name other selections in the new one, so a twin cleared to
// compute everything must check that it replayed nothing.
func ClearRecycler(e *Engine) { e.rec = nil }

// counts returns the selection stages r planned, how many of them replayed
// kept lists and the bytes the lists hold; none for no recycler yet.
func (r *recycler) counts() (selections, replays, kept int) {
	if r == nil {
		return 0, 0, 0
	}
	return r.selections, r.replays, r.kept
}

// RecyclerCounts is counts of e's recycler.
func RecyclerCounts(e *Engine) (selections, replays, kept int) { return e.rec.counts() }

// The hand-off modes of SetHandoff.
const (
	HandoffAuto = handoffAuto
	HandoffAll  = handoffAll
	HandoffNone = handoffNone
)

// SetHandoff sets which of e's jobs meet a worker (beside.go): HandoffAll
// offloads every one to a worker and its join waits for it, HandoffNone runs
// every one at its join.
func SetHandoff(e *Engine, mode uint8) { e.handoff = mode }

// JobCounts returns how many of e's jobs ran on a worker, how many at their
// joins, and how many joins waited for a worker.
func JobCounts(e *Engine) (worker, join, waited int) {
	return e.jobs.worker, e.jobs.join, e.jobs.waited
}

// HandQuery returns a query of e over p that is not submitted: PlanStep
// plans its stages, a test steps their tasks, ReleaseHand releases it.
func HandQuery(e *Engine, p *Plan) *Query {
	q := planningQuery(e)
	q.Plan = p
	return q
}

// PlanStep plans step i of q's plan as the engine does when q reaches it,
// once the tasks of step i-1 are done: the values that died with that step
// go back to the pool, and the new stage's jobs go to the host pool.
func PlanStep(q *Query, i int) []Task {
	q.bury(&q.eng.pool)
	q.stage = i
	q.doom(i)
	tasks := planOp(q, &q.Plan.Ops[i])
	handOff(tasks)
	return tasks
}

// ReleaseHand releases a HandQuery whose last step's tasks are done.
func ReleaseHand(e *Engine, q *Query) {
	q.freeResults(&e.pool)
	e.recycle(q)
}

// OpenJobs returns how many jobs of e's queries are not joined yet, or an
// error for one whose query is released or whose body is filed for reuse,
// or that reads or writes storage filed in e's pool. It waits until no
// worker runs or will run an open job, so that it reads what no job is
// writing.
func OpenJobs(e *Engine) (int, error) {
	pooled := map[any]bool{}
	var filed [][2]uintptr
	for _, bucket := range e.pool.i64 {
		for _, buf := range bucket {
			filed = append(filed, extent(buf))
		}
	}
	for _, bucket := range e.pool.f64 {
		for _, buf := range bucket {
			filed = append(filed, extent(buf))
		}
	}
	for _, m := range e.pool.mif {
		pooled[m] = true
	}
	for _, m := range e.pool.mii {
		pooled[m] = true
	}
	inPool := func(exts ...[2]uintptr) bool {
		for _, ext := range exts {
			for _, f := range filed {
				if ext[0] < ext[1] && ext[0] < f[1] && f[0] < ext[1] {
					return true
				}
			}
		}
		return false
	}
	n := 0
	for _, q := range e.queries {
		b := q.queryBody
		if b == nil {
			return n, fmt.Errorf("query %d is tracked with no body", q.ID)
		}
		open := openTasks(b.scanSlab, nil)
		open = openTasks(b.refineSlab, open)
		open = openTasks(b.gatherSlab, open)
		open = openTasks(b.mapSlab, open)
		open = openTasks(b.sumSlab, open)
		open = openTasks(b.probeSlab, open)
		open = openTasks(b.groupSlab, open)
		if n += len(open); len(open) == 0 {
			continue
		}
		if q.released || slices.Contains(e.spare, b) {
			return n, fmt.Errorf("query %d has %d jobs to join and is released", q.ID, len(open))
		}
		for _, t := range open {
			for hostpool.Pending(&t.job.Job) {
				runtime.Gosched()
			}
			var risk bool
			switch k := t.job.k.(type) {
			case *FilterScan:
				risk = inPool(extent(k.ids))
			case *FilterRefine:
				risk = inPool(extent(k.cand.I), extent(k.ids))
			case *Gather:
				risk = inPool(extent(k.cand.I), extent(k.out.I), extent(k.out.F))
			case *MapBinary:
				risk = inPool(extent(k.a.I), extent(k.a.F), extent(k.b.I), extent(k.b.F), extent(k.res))
			case *SumAgg:
				risk = inPool(extent(k.in.I), extent(k.in.F))
			case *HashProbe:
				risk = pooled[k.set] || inPool(extent(k.cand.I), extent(k.ids), extent(k.payloads))
			case *GroupAgg:
				risk = pooled[k.agg] || inPool(extent(k.keys.I), extent(k.keys.F))
				if k.vals.BAT != nil {
					risk = risk || inPool(extent(k.vals.I), extent(k.vals.F))
				}
			}
			if risk {
				return n, fmt.Errorf("query %d: a %s job to join reads or writes storage in the pool", q.ID, t.op)
			}
		}
	}
	return n, nil
}

// openTasks appends the tasks of slab whose jobs are not joined yet.
func openTasks[O any](slab []slot[O], open []*chunkTask) []*chunkTask {
	for i := range slab {
		if t := &slab[i].chunkTask; t.job.k != nil && !t.finished {
			open = append(open, t)
		}
	}
	return open
}

// Tracked returns the queries e tracks: submitted, and not yet released
// or drained.
func Tracked(e *Engine) []*Query { return slices.Clone(e.queries) }

// GateError names the first of qs whose workers' gate is not open exactly
// while its task queue holds a task or it is done; nil when every gate
// agrees.
func GateError(qs []*Query) error {
	for _, q := range qs {
		want := q.done || q.queryBody != nil && q.taskQueue.Len() > 0
		if q.gate.Open() != want {
			return fmt.Errorf("query %d (done %v, released %v): gate open %v, want %v", q.ID, q.done, q.released, q.gate.Open(), want)
		}
	}
	return nil
}

// Reparks returns how many woken workers of q the scheduler parked again
// behind its gate without running them.
func Reparks(q *Query) uint64 { return q.gate.Reparks() }

// SetVar binds a named intermediate.
func (q *Query) SetVar(name string, ps *PartSet) { q.vars[name] = ps }

// ViewListDeaths returns the steps of p at which a candidate list dies
// under a view: after its last direct reader, at the last read of a view
// over it.
func ViewListDeaths(p *Plan) []int {
	var steps []int
	for i, mask := range p.dies {
		if mask>>underShift&0b11 != 0 {
			steps = append(steps, i)
		}
	}
	return steps
}

// appendI64 appends the integer tail to dst, writing out a dense
// candidate's OIDs: how the tests read a fragment whole.
func (b *BAT) appendI64(dst []int64) []int64 {
	for oid := b.seq; oid < b.seq+b.n; oid++ {
		dst = append(dst, int64(oid))
	}
	return append(dst, b.I...)
}
