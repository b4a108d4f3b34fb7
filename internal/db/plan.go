package db

import (
	"fmt"

	"elasticore/internal/deque"
	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// PartSet is a partitioned intermediate: one BAT fragment per task of the
// producing stage (MonetDB's partitioned BATs). Fragments stay partitioned
// so the next operator fans out over them — the horizontal parallelism of
// the Volcano model.
type PartSet struct {
	Parts []*BAT
	// lin is the lineage of a selection's output, which fixes its lists
	// (recycle.go); 0, as newVar leaves it, is none.
	lin uint32
	// col and cand are set on a projection its readers read through strips
	// (lowerProject, viewBit): the base column a sparse view's ids index and
	// the candidate list they are the ids of, which lives as long as the
	// views do (lifetimes).
	col  *BAT
	cand *PartSet
}

// at returns fragment i as the kernels read it; nil reads as no fragment.
func (ps *PartSet) at(i int) vec {
	if ps == nil {
		return vec{}
	}
	return vec{ps.Parts[i], ps.col}
}

// Rows returns the total row count across fragments.
func (ps *PartSet) Rows() int {
	n := 0
	for _, p := range ps.Parts {
		n += p.Len()
	}
	return n
}

// FlattenI64 concatenates integer fragments (result extraction), read as
// the kernels read them: dense candidate fragments are written out, sparse
// views gathered.
func (ps *PartSet) FlattenI64() []int64 {
	out := make([]int64, 0, ps.Rows())
	var buf intStrip
	for i, p := range ps.Parts {
		for a, n := 0, p.Len(); a < n && p.Kind == KindI64; a += stripRows {
			out = append(out, ps.at(i).ints(a, min(a+stripRows, n), &buf)...)
		}
	}
	return out
}

// FlattenF64 concatenates float fragments (result extraction), read as
// the kernels read them.
func (ps *PartSet) FlattenF64() []float64 {
	out := make([]float64, 0, ps.Rows())
	var buf floatStrip
	for i := range ps.Parts {
		v := ps.at(i)
		for a, n := 0, v.floatRows(); a < n; a += stripRows {
			out = append(out, v.floats(a, min(a+stripRows, n), &buf)...)
		}
	}
	return out
}

// valuesI64 returns the variable's integer values for a single-task
// operator to read: a merged variable's one fragment in place, anything
// else concatenated.
func (ps *PartSet) valuesI64() []int64 {
	if len(ps.Parts) == 1 && ps.Parts[0].n == 0 && !ps.Parts[0].sparse {
		return ps.Parts[0].I
	}
	return ps.FlattenI64()
}

// valuesF64 is valuesI64 for float variables.
func (ps *PartSet) valuesF64() []float64 {
	if len(ps.Parts) == 1 && !ps.Parts[0].sparse {
		return ps.Parts[0].F
	}
	return ps.FlattenF64()
}

// StageFn plans one stage of a query: given the query context it returns
// the partition tasks to dispatch. A stage with zero tasks completes
// immediately.
type StageFn func(q *Query) []Task

// Plan is an ordered pipeline of operator stages (the MAL program of
// Figure 3, operator-at-a-time): first one stage per op, each lowered by
// its kind's row of the op table when a query reaches it, then Stages.
type Plan struct {
	Name string
	// Ops are the lowered spec's steps, read in place (PlanSpec.Lower).
	Ops []OpSpec
	// Stages run after Ops: stages a caller appends to a lowered plan,
	// such as a benchmark's latency probe. By then only the plan's results
	// are still bound.
	Stages []StageFn
	// dies holds a death mask per step of Ops: which values die when its
	// stage drains, which it writes are results and whether a projection
	// makes views (lifetimes). A plan built without Lower has none: its
	// queries make no sparse views and return no storage to the pool.
	// short backs dies for plans of up to its length, so a plan stays one
	// object beside its ops (the longest TPC-H plan has 19 steps).
	dies  []uint16
	short [32]uint16
}

// Query is one executing instance of a plan, owned by a client session.
// It is a handle, fresh per Submit, over a body the engine recycles. The
// handle keeps what outlives the query: its identity, its completion and
// its latency. Release detaches the body, whose bindings, arenas and task
// buffers then serve a later query, so of a released handle only ID, Plan,
// Done and ElapsedCycles may still be read. A handle that reads done never
// reaches its body again: a dataflow worker of a released query that wakes
// late sees done and exits.
type Query struct {
	ID   int
	Plan *Plan

	done     bool
	released bool
	// gate is the gate of the query's dataflow workers (sched.Gated): open
	// exactly while its taskQueue holds a task or it is done. It lives on
	// the handle, so a released query's stays open for its late workers.
	gate sched.Gate

	startCycles, endCycles uint64

	*queryBody // nil once released
}

// queryBody is the part of a Query the engine recycles (Engine.Release):
// what a query needs only while it runs, or while its results are read.
// Maps are cleared and arenas rewound for the next query, so both keep
// their memory.
type queryBody struct {
	eng      *Engine
	vars     map[string]*PartSet
	sets     map[string]*i64Map // hash-join build sides
	scalars  map[string]float64
	partials map[string][]*i64fMap // grouped-aggregation partials

	// stage is the step being lowered, and the next one once it is.
	stage     int
	pending   int
	taskQueue deque.Deque[*dispatched] // per-query dataflow queue (PlacementOS)
	// tasks is the buffer chunked stages return their tasks in: the engine
	// moves them into dispatch envelopes before the next stage plans.
	tasks []Task

	// dying holds the ndying values captured for the stage in flight, one
	// per death bit of its step's mask, whose storage goes back to the pool
	// when it drains (pool.go).
	dying  [6]held
	ndying int

	// The arenas the query's bindings are made of: fragment headers, their
	// pointer lists, the PartSets over them and grouped-aggregation
	// partial lists.
	bats      arena[BAT]
	frags     arena[*BAT]
	psets     arena[PartSet]
	partLists arena[*i64fMap]

	// One slot slab per chunked kind, and the one task of a single-task
	// stage. A query lowers a stage only once the previous one has drained,
	// so each is free again by the time a later stage of its kind needs it.
	scanSlab   []slot[FilterScan]
	refineSlab []slot[FilterRefine]
	gatherSlab []slot[Gather]
	mapSlab    []slot[MapBinary]
	sumSlab    []slot[SumAgg]
	probeSlab  []slot[HashProbe]
	groupSlab  []slot[GroupAgg]
	fn         funcTask
	// ranges is the buffer partitionRanges writes a scan's ranges into.
	ranges [][2]int
}

// Done reports whether the query has finished all stages.
func (q *Query) Done() bool { return q.done }

// Var returns a named variable, panicking on absent names: plan bugs, and
// intermediates whose last reader has finished (only results outlive the
// query's last stage).
func (q *Query) Var(name string) *PartSet {
	ps, ok := q.vars[name]
	if !ok {
		panic(fmt.Sprintf("db: query %s: undefined variable %s", q.Plan.Name, name))
	}
	return ps
}

// newVar binds name to a fresh intermediate of the given number of empty
// fragments and returns it. The fragment headers are one run of the
// query's header arena — Parts[i] points at element i, which the
// partition's task fills in place and an empty partition leaves as it is —
// so on a recycled body a stage's output allocates nothing at any fan-out.
func (q *Query) newVar(name string, kind Kind, parts int) *PartSet {
	hdr := q.bats.take(parts)
	ps := q.psets.one()
	ps.Parts = q.frags.take(parts)
	for i := range hdr {
		hdr[i].Name, hdr[i].Kind = name, kind
		ps.Parts[i] = &hdr[i]
	}
	q.vars[name] = ps
	return ps
}

// Set returns a named hash-join build table, panicking on absent names
// (as Var).
func (q *Query) Set(name string) *i64Map {
	s, ok := q.sets[name]
	if !ok {
		panic(fmt.Sprintf("db: query %s: undefined set %s", q.Plan.Name, name))
	}
	return s
}

// SetSet binds a named hash-join build table.
func (q *Query) SetSet(name string, s *i64Map) { q.sets[name] = s }

// Scalar returns a named scalar result (0 when absent).
func (q *Query) Scalar(name string) float64 { return q.scalars[name] }

// SetScalar binds a named scalar result.
func (q *Query) SetScalar(name string, v float64) { q.scalars[name] = v }

// AddScalar accumulates into a named scalar (partial aggregation).
func (q *Query) AddScalar(name string, v float64) { q.scalars[name] += v }

func (q *Query) setPartials(name string, p []*i64fMap) {
	q.partials[name] = p
}

func (q *Query) partialsOf(name string) []*i64fMap {
	p, ok := q.partials[name]
	if !ok {
		panic(fmt.Sprintf("db: query %s: undefined partials %s", q.Plan.Name, name))
	}
	return p
}

// Machine returns the hardware model (convenience for lowering functions).
func (q *Query) Machine() *numa.Machine { return q.eng.machine }

// Fanout returns the partition count for full-table scans.
func (q *Query) Fanout() int { return q.eng.cfg.Fanout }

// ElapsedCycles returns the query latency once done.
func (q *Query) ElapsedCycles() uint64 {
	if !q.done {
		return 0
	}
	return q.endCycles - q.startCycles
}
