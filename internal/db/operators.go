package db

import (
	"fmt"
	"math"
	"slices"

	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// operators.go holds the predicates and the lowering functions of the
// MAL-like operator set: selections producing candidate lists, gather-style
// projections, value maps, aggregates, hash joins and group-bys. A lowering
// function plans one OpSpec of a PlanSpec (vplan.go) for one query — it
// reads the step's names and parameters from the spec, which it never
// writes, and returns the tasks to dispatch: a slab of partition tasks, or
// the one task of single(label, work). The op table in vplan.go is the only
// caller.
//
// All per-query mutable state lives in the Query (vars, sets, scalars,
// partials), so a Plan value itself is immutable and reusable.

// Per-tuple compute costs in cycles, by operator class.
const (
	cyclesScan   = 3
	cyclesGather = 4
	cyclesMap    = 2
	cyclesSum    = 2
	cyclesGroup  = 10
	cyclesBuild  = 12
	cyclesProbe  = 8
	cyclesSort   = 40
)

// predForm identifies a predicate's comparison. The scan loops carry one
// inlined arm per form, so no predicate costs an indirect call per row.
type predForm uint8

const (
	predNone   predForm = iota // the zero Pred: fits no column
	predAll                    // matches every row of either kind (ScanAll)
	predIRange                 // iLo <= v < iHi
	predIEq                    // v == iLo
	predINe                    // v != iLo
	predIIn                    // v in iList
	predFRange                 // fLo <= v <= fHi
	predFLess                  // v < fHi
)

// Pred is a typed predicate over column values: a comparison form and its
// bounds, nothing else — two predicates built from the same arguments are
// equal, and a plan holding them can be compared, printed and hashed.
type Pred struct {
	form     predForm
	iLo, iHi int64
	iList    []int64
	fLo, fHi float64
}

// PredAll matches every row of either kind (full scans).
func PredAll() Pred { return Pred{form: predAll} }

// PredIRange matches lo <= v < hi on integer columns.
func PredIRange(lo, hi int64) Pred { return Pred{form: predIRange, iLo: lo, iHi: hi} }

// PredIEq matches v == x.
func PredIEq(x int64) Pred { return Pred{form: predIEq, iLo: x} }

// PredINe matches v != x.
func PredINe(x int64) Pred { return Pred{form: predINe, iLo: x} }

// PredIIn matches v in the given list (the paper's Q19/Q22 "IN" predicates
// over a series of constant values shared in a list). IN lists are a
// handful of constants, so a linear scan over a flat slice beats hashing.
func PredIIn(list ...int64) Pred {
	return Pred{form: predIIn, iList: append([]int64(nil), list...)}
}

// PredFRange matches lo <= v <= hi on float columns.
func PredFRange(lo, hi float64) Pred { return Pred{form: predFRange, fLo: lo, fHi: hi} }

// PredFLess matches v < hi on float columns.
func PredFLess(hi float64) Pred { return Pred{form: predFLess, fHi: hi} }

// String renders the predicate as its comparison ("v" is the column
// value), a range open to one side as the one-sided comparison.
func (p Pred) String() string {
	switch p.form {
	case predAll:
		return "true"
	case predIRange:
		switch {
		case p.iLo == math.MinInt64:
			return fmt.Sprintf("v < %d", p.iHi)
		case p.iHi == math.MaxInt64:
			return fmt.Sprintf("v >= %d", p.iLo)
		}
		return fmt.Sprintf("%d <= v < %d", p.iLo, p.iHi)
	case predIEq:
		return fmt.Sprintf("v == %d", p.iLo)
	case predINe:
		return fmt.Sprintf("v != %d", p.iLo)
	case predIIn:
		return fmt.Sprintf("v in %v", p.iList)
	case predFRange:
		if math.IsInf(p.fHi, 1) {
			return fmt.Sprintf("v >= %g", p.fLo)
		}
		return fmt.Sprintf("%g <= v <= %g", p.fLo, p.fHi)
	case predFLess:
		return fmt.Sprintf("v < %g", p.fHi)
	}
	return "none"
}

// b2i converts a comparison result to 0/1; the compiler lowers it to a
// branch-free SETcc, which is what makes the selection loops below immune
// to branch misprediction at mid selectivities.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// growFor makes room to blind-write n more elements into buf, returning
// the slice and the write window: the selection loops store every row's
// candidate and advance the cursor by the 0/1 test result, so nothing on
// the per-tuple path checks capacity.
func growFor[T any](buf []T, n int) ([]T, []T) {
	buf = slices.Grow(buf, n)
	return buf, buf[len(buf) : len(buf)+n]
}

// inList is b2i(v ∈ list). IN lists are a handful of constants, so
// testing all of them branch-free beats an early exit.
func inList(list []int64, v int64) int {
	hit := 0
	for _, x := range list {
		hit |= b2i(x == v)
	}
	return hit
}

// fits reports whether p's form applies to column c's kind: an integer form
// to an integer column, a float form to a float column, PredAll to both.
func (p *Pred) fits(c *BAT) bool {
	switch p.form {
	case predAll:
		return true
	case predIRange, predIEq, predINe, predIIn:
		return c.Kind == KindI64
	case predFRange, predFLess:
		return c.Kind == KindF64
	}
	return false
}

// mustFit panics unless p fits c: what every selection operator checks at
// construction, before any row is scanned.
func (p *Pred) mustFit(c *BAT) {
	if !p.fits(c) {
		panic(predMismatch(c))
	}
}

// selectScan is the filter kernel over one strip: it scans base rows
// [a, b) of c and returns out with the matching row OIDs appended. The
// comparison is inlined into the loop; the form is tested once per strip,
// never per row, and fits c (mustFit, at construction). (A PredAll scan
// never gets here — FilterScan answers it with a dense range — but the
// refinement of a dense candidate under PredAll does.)
func selectScan(c *BAT, p *Pred, out []int64, a, b int) []int64 {
	ids, buf := growFor(out, b-a)
	k := 0
	switch p.form {
	case predAll:
		for row := a; row < b; row++ {
			buf[k] = int64(row)
			k++
		}
	case predIRange:
		lo, hi, vals := p.iLo, p.iHi, c.I
		for row := a; row < b; row++ {
			buf[k] = int64(row)
			v := vals[row]
			k += b2i(v >= lo && v < hi)
		}
	case predIEq:
		x, vals := p.iLo, c.I
		for row := a; row < b; row++ {
			buf[k] = int64(row)
			k += b2i(vals[row] == x)
		}
	case predINe:
		x, vals := p.iLo, c.I
		for row := a; row < b; row++ {
			buf[k] = int64(row)
			k += b2i(vals[row] != x)
		}
	case predIIn:
		list, vals := p.iList, c.I
		for row := a; row < b; row++ {
			buf[k] = int64(row)
			k += inList(list, vals[row])
		}
	case predFRange:
		lo, hi, vals := p.fLo, p.fHi, c.F
		for row := a; row < b; row++ {
			buf[k] = int64(row)
			v := vals[row]
			k += b2i(v >= lo && v <= hi)
		}
	case predFLess:
		hi, vals := p.fHi, c.F
		for row := a; row < b; row++ {
			buf[k] = int64(row)
			k += b2i(vals[row] < hi)
		}
	}
	return ids[:len(ids)+k]
}

// gatherScan is selectScan's sibling for candidate refinement: it tests
// the base column c at positions [a, b) of the candidate list cand (within
// the list; the caller clamps) and returns out with the surviving
// candidates appended. Positions a … b of a dense candidate are base rows
// seq+a … seq+b, so refining one is scanning them.
func gatherScan(c *BAT, p *Pred, cand *BAT, out []int64, a, b int) []int64 {
	if cand.n > 0 {
		return selectScan(c, p, out, cand.seq+a, cand.seq+b)
	}
	cids := cand.I[a:b]
	if p.form == predAll {
		return append(out, cids...)
	}
	ids, buf := growFor(out, len(cids))
	k := 0
	switch p.form {
	case predIRange:
		lo, hi, vals := p.iLo, p.iHi, c.I
		for _, cid := range cids {
			buf[k] = cid
			v := vals[cid]
			k += b2i(v >= lo && v < hi)
		}
	case predIEq:
		x, vals := p.iLo, c.I
		for _, cid := range cids {
			buf[k] = cid
			k += b2i(vals[cid] == x)
		}
	case predINe:
		x, vals := p.iLo, c.I
		for _, cid := range cids {
			buf[k] = cid
			k += b2i(vals[cid] != x)
		}
	case predIIn:
		list, vals := p.iList, c.I
		for _, cid := range cids {
			buf[k] = cid
			k += inList(list, vals[cid])
		}
	case predFRange:
		lo, hi, vals := p.fLo, p.fHi, c.F
		for _, cid := range cids {
			buf[k] = cid
			v := vals[cid]
			k += b2i(v >= lo && v <= hi)
		}
	case predFLess:
		hi, vals := p.fHi, c.F
		for _, cid := range cids {
			buf[k] = cid
			k += b2i(vals[cid] < hi)
		}
	}
	return ids[:len(ids)+k]
}

// predMismatch is the panic message for a predicate whose form does not
// apply to column c's kind.
func predMismatch(c *BAT) string {
	if c.Kind == KindI64 {
		return fmt.Sprintf("db: integer column %s filtered with non-integer predicate", c.Name)
	}
	return fmt.Sprintf("db: float column %s filtered with non-float predicate", c.Name)
}

// slot is one partition of a chunked stage: its task and the operator the
// task drives, side by side. A stage plans its partitions into its kind's
// slab of slots on the query body, zeroed first, so on a recycled body it
// allocates nothing at any fan-out; the slab is free again once the stage
// drains, the output headers (newVar) live on with the query.
type slot[O any] struct {
	chunkTask
	op O
}

// lowerScan plans algebra.thetasubselect (OpScan): a full partitioned scan
// of a base-table column producing per-partition candidate lists (row OIDs)
// in variable Out. Under PredAll it is the sql.tid pattern: a candidate
// list covering the table, answered as dense ranges. A scan the engine's
// recycler holds replays its kept lists (recycle.go).
func lowerScan(q *Query, op *OpSpec) []Task {
	base := q.eng.store.Table(op.Table)
	c := base.Col(op.Col)
	q.ranges = partitionRanges(q.ranges, base.Rows, q.Fanout(), q.eng.cfg.MinPartRows)
	ranges := q.ranges
	ps := q.newVar(op.Out, KindI64, len(ranges))
	held, keep := q.recall(c, nil, &op.Pred, ps)
	slab := takeSlab(&q.scanSlab, len(ranges))
	q.tasks = q.tasks[:0]
	for i, r := range ranges {
		s := &slab[i]
		s.op.init(c, &op.Pred, r[0], r[1], nil)
		s.op.out, s.op.keep = ps.Parts[i], keep
		if held != nil {
			s.op.ids, s.op.replay = held.list(i), true
		}
		s.init("algebra.thetasubselect", q.Machine(), &s.op, r[0], r[1], cyclesScan, c)
		if held == nil && op.Pred.form != predAll {
			q.beside(&s.chunkTask, &s.op)
		}
		q.tasks = append(q.tasks, &s.chunkTask)
	}
	if keep != nil {
		keep.expect(len(q.tasks))
	}
	return q.tasks
}

// lowerRefine plans algebra.subselect (OpRefine): it refines the candidate
// lists in variable In against a further predicate on a base column,
// producing Out, or replays them as lowerScan does.
func lowerRefine(q *Query, op *OpSpec) []Task {
	c := q.eng.store.Table(op.Table).Col(op.Col)
	inPS := q.Var(op.In)
	ps := q.newVar(op.Out, KindI64, len(inPS.Parts))
	held, keep := q.recall(c, inPS, &op.Pred, ps)
	slab := takeSlab(&q.refineSlab, len(inPS.Parts))
	q.tasks = q.tasks[:0]
	for i, cand := range inPS.Parts {
		if cand == nil || cand.Len() == 0 {
			continue
		}
		s := &slab[i]
		s.op.init(c, &op.Pred, cand, nil)
		s.op.out, s.op.keep = ps.Parts[i], keep
		if held != nil {
			s.op.ids, s.op.replay = held.list(i), true
		}
		s.gathers("algebra.subselect", q, &s.op, cand, c, cyclesGather)
		if held == nil {
			q.beside(&s.chunkTask, &s.op)
		}
		q.tasks = append(q.tasks, &s.chunkTask)
	}
	if keep != nil {
		keep.expect(len(q.tasks))
	}
	return q.tasks
}

// lowerProject plans algebra.projection (OpProject): it gathers base-column
// values at the candidate positions in variable In, producing aligned value
// fragments in Out. A fragment over a dense candidate list, and one whose
// readers all read strips (viewBit, lifetimes), is a view — of the base rows
// the list covers, or of the list's ids — whose task charges the gathered
// reads and the materializing write all the same; only the copy's job
// beside the model is gone.
func lowerProject(q *Query, op *OpSpec) []Task {
	c := q.eng.store.Table(op.Table).Col(op.Col)
	inPS := q.Var(op.In)
	ps := q.newVar(op.Out, c.Kind, len(inPS.Parts))
	views := q.stage < len(q.Plan.dies) && q.Plan.dies[q.stage]&viewBit != 0
	if views {
		ps.col, ps.cand = c, inPS
	}
	slab := takeSlab(&q.gatherSlab, len(inPS.Parts))
	q.tasks = q.tasks[:0]
	for i, cand := range inPS.Parts {
		if cand == nil || cand.Len() == 0 {
			continue
		}
		s, outB := &slab[i], ps.Parts[i]
		switch {
		case views || cand.n > 0:
			outB.viewOf(c, cand)
		case c.Kind == KindI64:
			outB.I = q.scratchI64(cand.Len())
		default:
			outB.F = q.scratchF64(cand.Len())
		}
		s.op = Gather{col: c, cand: cand, out: outB}
		s.gathers("algebra.projection", q, &s.op, cand, c, cyclesGather)
		if !outB.view {
			q.beside(&s.chunkTask, &s.op)
		}
		q.tasks = append(q.tasks, &s.chunkTask)
	}
	return q.tasks
}

// lowerMap2 plans batcalc binary arithmetic (OpMap2) over the two aligned
// float variables In and In2 (e.g. [*](extendedprice, discount)).
func lowerMap2(q *Query, op *OpSpec) []Task {
	pa, pb := q.Var(op.In), q.Var(op.In2)
	if len(pa.Parts) != len(pb.Parts) {
		panic(fmt.Sprintf("db: map2 over misaligned vars %s (%d parts) and %s (%d parts)", op.In, len(pa.Parts), op.In2, len(pb.Parts)))
	}
	f := op.Map.fn()
	ps := q.newVar(op.Out, KindF64, len(pa.Parts))
	slab := takeSlab(&q.mapSlab, len(pa.Parts))
	q.tasks = q.tasks[:0]
	for i, fa := range pa.Parts {
		if fa == nil || fa.Len() == 0 {
			continue
		}
		s, fb := &slab[i], pb.Parts[i]
		s.op = MapBinary{a: pa.at(i), b: pb.at(i), f: f, res: q.scratchF64(fa.Len()), out: ps.Parts[i]}
		s.init("batcalc.*", q.Machine(), &s.op, 0, fa.Len(), cyclesMap, fa, fb)
		q.beside(&s.chunkTask, &s.op)
		q.tasks = append(q.tasks, &s.chunkTask)
	}
	return q.tasks
}

// lowerSum plans aggr.sum (OpSum) over the float variable In: per-partition
// partials accumulate into the scalar Out.
func lowerSum(q *Query, op *OpSpec) []Task {
	ps := q.Var(op.In)
	slab := takeSlab(&q.sumSlab, len(ps.Parts))
	q.tasks = q.tasks[:0]
	for i, frag := range ps.Parts {
		if frag == nil || frag.Len() == 0 {
			continue
		}
		s := &slab[i]
		s.op = SumAgg{in: ps.at(i), q: q, scalar: op.Out}
		s.init("aggr.sum", q.Machine(), &s.op, 0, frag.Len(), cyclesSum, frag)
		q.beside(&s.chunkTask, &s.op)
		q.tasks = append(q.tasks, &s.chunkTask)
	}
	return q.tasks
}

// lowerCount plans aggr.count (OpCount) over variable In, storing the row
// count in the scalar Out.
func lowerCount(q *Query, op *OpSpec) []Task {
	q.SetScalar(op.Out, float64(q.Var(op.In).Rows()))
	return nil
}

// funcTask is the one task of a single-task stage (hash build, merges,
// sorts, point reads): it runs the stage's work function over the query and
// the step once, then pays the cycle cost it computed down across quanta.
type funcTask struct {
	label string
	q     *Query
	op    *OpSpec
	work  func(q *Query, op *OpSpec, ctx *sched.ExecContext) uint64

	started   bool
	remaining uint64
}

func (t *funcTask) Op() string                 { return t.label }
func (t *funcTask) PreferredNode() numa.NodeID { return numa.NoNode }

func (t *funcTask) Step(ctx *sched.ExecContext, budget uint64) (uint64, bool) {
	if !t.started {
		t.started = true
		t.remaining = t.work(t.q, t.op, ctx)
	}
	if t.remaining <= budget {
		used := t.remaining
		t.remaining = 0
		return used, true
	}
	t.remaining -= budget
	return budget, false
}

// single is the lowering of a single-task kind: work, once, under the given
// task label, as the query body's funcTask, in its task buffer.
func single(label string, work func(*Query, *OpSpec, *sched.ExecContext) uint64) func(*Query, *OpSpec) []Task {
	return func(q *Query, op *OpSpec) []Task {
		q.fn = funcTask{label: label, q: q, op: op, work: work}
		q.tasks = append(q.tasks[:0], &q.fn)
		return q.tasks
	}
}

// buildWork is a hash-join build side (OpBuild): a single task mapping the
// keys of variable In to payloads from In2 (or to 1 when In2 is empty),
// bound to the set Out. The table is sized once, from the bounds of the key
// fragments where they make it positional and from the build side's row
// count otherwise.
func buildWork(q *Query, op *OpSpec, ctx *sched.ExecContext) uint64 {
	keys := q.Var(op.In)
	var vals *PartSet
	if op.In2 != "" {
		vals = q.Var(op.In2)
	}
	m := q.eng.pool.getMapII()
	lo, hi := noKeys()
	for pi := range keys.Parts {
		lo, hi = keys.at(pi).widen(lo, hi)
	}
	if !m.tryPositional(lo, hi, keys.Rows(), vals == nil) {
		m.reserve(keys.Rows())
	}
	var cost uint64
	for pi, frag := range keys.Parts {
		if frag == nil || frag.Len() == 0 {
			continue
		}
		cost += frag.chargeRange(ctx, 0, frag.Len(), false)
		hb := HashBuild{keys: keys.at(pi), vals: vals.at(pi), set: m}
		hb.runRange(0, frag.Len())
		cost += uint64(frag.Len()) * cyclesBuild
	}
	q.SetSet(op.Out, m)
	return cost
}

// lowerProbe plans the probe side of a join (OpProbeSemi, OpProbeFetch,
// OpProbeAnti): candidate rows of In whose base-column value hits the set
// In2 — misses it, for an anti-join (NOT EXISTS / NOT IN shapes) — survive
// into Out; a fetch join also gathers the build side's payloads into Out2,
// aligned with Out.
func lowerProbe(q *Query, op *OpSpec) []Task {
	c := q.eng.store.Table(op.Table).Col(op.Col)
	inPS := q.Var(op.In)
	set := q.Set(op.In2)
	ps := q.newVar(op.Out, KindI64, len(inPS.Parts))
	var vps *PartSet
	if op.Kind == OpProbeFetch {
		vps = q.newVar(op.Out2, KindI64, len(inPS.Parts))
	}
	slab := takeSlab(&q.probeSlab, len(inPS.Parts))
	q.tasks = q.tasks[:0]
	for i, cand := range inPS.Parts {
		if cand == nil || cand.Len() == 0 {
			continue
		}
		s := &slab[i]
		s.op = HashProbe{col: c, cand: cand, set: set, anti: op.Kind == OpProbeAnti, fetch: vps != nil, out: ps.Parts[i]}
		if vps != nil {
			s.op.payOut = vps.Parts[i]
		}
		s.gathers("join.probe", q, &s.op, cand, c, cyclesProbe)
		q.beside(&s.chunkTask, &s.op)
		q.tasks = append(q.tasks, &s.chunkTask)
	}
	return q.tasks
}

// lookupWork is an index-style point read (OpLookup): one short task
// binary-searches the sorted key column Col of Table for Key and, on a hit,
// projects the value column Col2 at that row into the scalar Out (misses
// leave it at zero; Out+".found" counts hits). Against the fan-out scans
// above this is the core-scalability extreme: a handful of probes in a
// single task, with nothing for additional cores to do — the OLTP half of a
// heterogeneous tenant mix.
func lookupWork(q *Query, op *OpSpec, ctx *sched.ExecContext) uint64 {
	tb := q.eng.store.Table(op.Table)
	kc, vc := tb.Col(op.Col), tb.Col(op.Col2)
	var cost uint64
	row, probes, ok := lookupVisit(kc.I, op.Key, func(mid int) {
		cost += kc.chargeRange(ctx, mid, mid+1, false)
	})
	cost += uint64(probes+1) * cyclesProbe
	q.SetScalar(op.Out, 0)
	if ok {
		cost += vc.chargeRange(ctx, row, row+1, false)
		var v float64
		if vc.Kind == KindI64 {
			v = float64(vc.I[row])
		} else {
			v = vc.F[row]
		}
		q.SetScalar(op.Out, v)
		q.AddScalar(op.Out+".found", 1)
	}
	return cost
}

// lowerGroupSum plans the partial phase of a grouped aggregation
// (OpGroupSum): per-partition hash maps of the keys of In -> sum(In2),
// stored on the query under Out. An empty In2 counts rows per group
// instead. OpGroupMerge follows it — the two-phase grouping the paper
// credits HyPer/BLU with (local build, then merge).
func lowerGroupSum(q *Query, op *OpSpec) []Task {
	keys := q.Var(op.In)
	vals := keys // count mode: alignment only
	if op.In2 != "" {
		vals = q.Var(op.In2)
	}
	if len(keys.Parts) != len(vals.Parts) {
		panic(fmt.Sprintf("db: group-sum misaligned %s/%s", op.In, op.In2))
	}
	partials := q.partLists.take(len(keys.Parts))
	q.setPartials(op.Out, partials)
	slab := takeSlab(&q.groupSlab, len(keys.Parts))
	q.tasks = q.tasks[:0]
	for i, kf := range keys.Parts {
		if kf == nil || kf.Len() == 0 {
			continue
		}
		s, kv, vv := &slab[i], keys.at(i), vals.at(i)
		if op.In2 == "" {
			vv = vec{} // count mode
		}
		// A partial over a dense enough key range is sized here, once;
		// one left in hash form grows by doubling, its distinct count
		// being unknown.
		partials[i] = q.eng.pool.getMapIF()
		lo, hi := kv.widen(noKeys())
		partials[i].tryPositional(lo, hi, kf.Len(), false)
		s.op = GroupAgg{keys: kv, vals: vv, agg: partials[i]}
		s.init("group.sum", q.Machine(), &s.op, 0, kf.Len(), cyclesGroup, kf, vv.BAT)
		q.beside(&s.chunkTask, &s.op)
		q.tasks = append(q.tasks, &s.chunkTask)
	}
	return q.tasks
}

// mergeWork is the merge phase after OpGroupSum (OpGroupMerge): a single
// mat.pack task combining the partial maps of In into the variables Out
// (keys, ascending) and Out2 (sums), single-fragment PartSets. The total is
// sized once, positional over the union of the partials' key bounds where
// that fits.
func mergeWork(q *Query, op *OpSpec, ctx *sched.ExecContext) uint64 {
	partials := q.partialsOf(op.In)
	n := 0
	lo, hi := noKeys()
	for _, m := range partials {
		if m != nil {
			n += m.Len()
			lo, hi = m.widen(lo, hi)
		}
	}
	pool := &q.eng.pool
	total := pool.getMapIF()
	if !total.tryPositional(lo, hi, n, false) {
		total.reserve(n)
	}
	add := total.Add
	for _, m := range partials {
		if m != nil {
			m.Range(add)
		}
	}
	// The sorted pair becomes the groups' tails; the table and the pair
	// the sort did not return (hash form only) go back at once.
	ks, sums, tk, ts := sortedGroups(total, q.scratchI64(total.Len()), q.scratchF64(total.Len()), func(n int) ([]int64, []float64) {
		return q.scratchI64(n)[:n], q.scratchF64(n)[:n]
	})
	pool.putMapIF(total)
	pool.putI64(tk)
	pool.putF64(ts)
	kb, sb := q.setGroups(op.Out, op.Out2, ks, sums)
	cost := uint64(n)*cyclesGroup + uint64(len(ks))*cyclesSort
	cost += kb.chargeRange(ctx, 0, kb.Len(), true)
	cost += sb.chargeRange(ctx, 0, sb.Len(), true)
	return cost
}

// setGroups binds a merged key/sum pair as single-fragment variables, their
// headers, fragment lists and PartSets drawn from the query's arenas.
func (q *Query) setGroups(keysVar, sumsVar string, ks []int64, sums []float64) (kb, sb *BAT) {
	kps, sps := q.newVar(keysVar, KindI64, 1), q.newVar(sumsVar, KindF64, 1)
	kb, sb = kps.Parts[0], sps.Parts[0]
	kb.I, sb.F = ks, sums
	return kb, sb
}

// filterWork is the single task of OpGroupFilter: it keeps the merged groups
// whose sum exceeds Keep (a HAVING sum > t clause); the variables In (keys)
// and In2 (sums) are replaced, and the replaced pair dies when the stage
// drains (the step is its last reader). The survivors are counted first, so
// the pair is drawn at their number.
func filterWork(q *Query, op *OpSpec, _ *sched.ExecContext) uint64 {
	keys, sums := q.Var(op.In).valuesI64(), q.Var(op.In2).valuesF64()
	n := 0
	for _, s := range sums {
		n += b2i(s > op.Keep)
	}
	ks, ss := q.scratchI64(n), q.scratchF64(n)
	for i, s := range sums {
		if s > op.Keep {
			ks = append(ks, keys[i])
			ss = append(ss, s)
		}
	}
	q.setGroups(op.In, op.In2, ks, ss)
	return uint64(len(keys)) * cyclesMap
}

// topNWork is the final single-task sort (OpTopN) of the merged sums In2
// descending, keeping N groups; results replace In/In2.
func topNWork(q *Query, op *OpSpec, _ *sched.ExecContext) uint64 {
	keys, sums := q.Var(op.In).valuesI64(), q.Var(op.In2).valuesF64()
	idx := topNIndex(sums, op.N)
	ks := q.scratchI64(len(idx))[:len(idx)]
	ss := q.scratchF64(len(idx))[:len(idx)]
	for i, j := range idx {
		ks[i] = keys[j]
		ss[i] = sums[j]
	}
	q.setGroups(op.In, op.In2, ks, ss)
	return uint64(len(keys)) * cyclesSort
}
