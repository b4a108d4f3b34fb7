package db

import (
	"fmt"
	"slices"

	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// operators.go defines the stage builders of the MAL-like operator set:
// selections producing candidate lists, gather-style projections, value
// maps, aggregates, hash joins and group-bys. Every builder returns a
// StageFn; plans are ordered lists of them (Figure 3's query plan).
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

// predForm identifies a predicate shape the scan loops can inline,
// avoiding an indirect call per row. predGeneric falls back to the
// closures.
type predForm int

const (
	predGeneric predForm = iota
	predAll              // matches every row (ScanAll)
	predIRange           // iLo <= v < iHi
	predIEq              // v == iLo
	predIIn              // v in iList
	predFRange           // fLo <= v <= fHi
	predFLess            // v < fHi
)

// Pred is a typed predicate over column values. Closure-built predicates
// work on any matching column; the constructors below additionally record
// the comparison form so selection loops can inline it.
type Pred struct {
	I func(int64) bool
	F func(float64) bool

	form     predForm
	iLo, iHi int64
	iList    []int64
	fLo, fHi float64
}

// PredIRange matches lo <= v < hi on integer columns.
func PredIRange(lo, hi int64) Pred {
	return Pred{
		I:    func(v int64) bool { return v >= lo && v < hi },
		form: predIRange, iLo: lo, iHi: hi,
	}
}

// PredFRange matches lo <= v <= hi on float columns.
func PredFRange(lo, hi float64) Pred {
	return Pred{
		F:    func(v float64) bool { return v >= lo && v <= hi },
		form: predFRange, fLo: lo, fHi: hi,
	}
}

// PredFLess matches v < hi on float columns.
func PredFLess(hi float64) Pred {
	return Pred{
		F:    func(v float64) bool { return v < hi },
		form: predFLess, fHi: hi,
	}
}

// PredIEq matches v == x.
func PredIEq(x int64) Pred {
	return Pred{
		I:    func(v int64) bool { return v == x },
		form: predIEq, iLo: x,
	}
}

// PredIIn matches v in the given list (the paper's Q19/Q22 "IN" predicates
// over a series of constant values shared in a list). IN lists are a
// handful of constants, so a linear scan over a flat slice beats hashing.
func PredIIn(list ...int64) Pred {
	set := append([]int64(nil), list...)
	return Pred{
		I: func(v int64) bool {
			for _, x := range set {
				if x == v {
					return true
				}
			}
			return false
		},
		form: predIIn, iList: set,
	}
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

// minStrip is the smallest blind-write window a selection kernel is handed.
const minStrip = 64

// strip returns how many of the n pending input units a selection kernel
// takes next: as many as its output buffer has room for, so blind writes
// regrow a buffer only when it is nearly full, as appending would — but
// never fewer than minStrip.
func strip(n int, out []int64) int { return min(n, max(cap(out)-len(out), minStrip)) }

// selHint sizes the scratch buffer of a selection over rows inputs: half
// of them, and never less than the first strip, which therefore never
// regrows it.
func selHint(rows int) int { return max(rows/2, min(rows, minStrip)) }

// inList is b2i(v ∈ list). IN lists are a handful of constants, so
// testing all of them branch-free beats an early exit.
func inList(list []int64, v int64) int {
	hit := 0
	for _, x := range list {
		hit |= b2i(x == v)
	}
	return hit
}

// fits reports whether p has an arm for column c's kind.
func (p *Pred) fits(c *BAT) bool {
	return (c.Kind == KindI64 && p.I != nil) || (c.Kind == KindF64 && p.F != nil)
}

// mustFit panics unless p fits c: what every selection operator checks at
// construction, before any row is scanned.
func (p *Pred) mustFit(c *BAT) {
	if !p.fits(c) {
		panic(predMismatch(c))
	}
}

// selectScan is the filter kernel over one strip: it scans base rows
// [a, b) of c and returns out with the matching row OIDs appended.
// Constructor-built predicates get their comparison inlined into the loop;
// closure predicates pay one indirect call per row. The form is tested once
// per strip, never per row. (A PredAll scan never gets here — FilterScan
// answers it with a dense range — and the refinement of a dense candidate
// under PredAll runs its closures.)
func selectScan(c *BAT, p *Pred, out []int64, a, b int) []int64 {
	ids, buf := growFor(out, b-a)
	k := 0
	switch {
	case p.form == predIRange && c.Kind == KindI64:
		lo, hi, vals := p.iLo, p.iHi, c.I
		for row := a; row < b; row++ {
			buf[k] = int64(row)
			v := vals[row]
			k += b2i(v >= lo && v < hi)
		}
	case p.form == predIEq && c.Kind == KindI64:
		x, vals := p.iLo, c.I
		for row := a; row < b; row++ {
			buf[k] = int64(row)
			k += b2i(vals[row] == x)
		}
	case p.form == predIIn && c.Kind == KindI64:
		list, vals := p.iList, c.I
		for row := a; row < b; row++ {
			buf[k] = int64(row)
			k += inList(list, vals[row])
		}
	case p.form == predFRange && c.Kind == KindF64:
		lo, hi, vals := p.fLo, p.fHi, c.F
		for row := a; row < b; row++ {
			buf[k] = int64(row)
			v := vals[row]
			k += b2i(v >= lo && v <= hi)
		}
	case p.form == predFLess && c.Kind == KindF64:
		hi, vals := p.fHi, c.F
		for row := a; row < b; row++ {
			buf[k] = int64(row)
			k += b2i(vals[row] < hi)
		}
	case c.Kind == KindI64:
		fi, vals := p.I, c.I
		for row := a; row < b; row++ {
			buf[k] = int64(row)
			k += b2i(fi(vals[row]))
		}
	default:
		ff, vals := p.F, c.F
		for row := a; row < b; row++ {
			buf[k] = int64(row)
			k += b2i(ff(vals[row]))
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
	switch {
	case p.form == predIRange && c.Kind == KindI64:
		lo, hi, vals := p.iLo, p.iHi, c.I
		for _, cid := range cids {
			buf[k] = cid
			v := vals[cid]
			k += b2i(v >= lo && v < hi)
		}
	case p.form == predIEq && c.Kind == KindI64:
		x, vals := p.iLo, c.I
		for _, cid := range cids {
			buf[k] = cid
			k += b2i(vals[cid] == x)
		}
	case p.form == predIIn && c.Kind == KindI64:
		list, vals := p.iList, c.I
		for _, cid := range cids {
			buf[k] = cid
			k += inList(list, vals[cid])
		}
	case p.form == predFRange && c.Kind == KindF64:
		lo, hi, vals := p.fLo, p.fHi, c.F
		for _, cid := range cids {
			buf[k] = cid
			v := vals[cid]
			k += b2i(v >= lo && v <= hi)
		}
	case p.form == predFLess && c.Kind == KindF64:
		hi, vals := p.fHi, c.F
		for _, cid := range cids {
			buf[k] = cid
			k += b2i(vals[cid] < hi)
		}
	case c.Kind == KindI64:
		fi, vals := p.I, c.I
		for _, cid := range cids {
			buf[k] = cid
			k += b2i(fi(vals[cid]))
		}
	default:
		ff, vals := p.F, c.F
		for _, cid := range cids {
			buf[k] = cid
			k += b2i(ff(vals[cid]))
		}
	}
	return ids[:len(ids)+k]
}

// predMismatch is the panic message for a predicate that has neither an
// inlinable form nor a closure for column c's kind.
func predMismatch(c *BAT) string {
	if c.Kind == KindI64 {
		return fmt.Sprintf("db: integer column %s filtered with non-integer predicate", c.Name)
	}
	return fmt.Sprintf("db: float column %s filtered with non-float predicate", c.Name)
}

// slot is one partition of a chunked stage: its task and the operator the
// task drives, side by side. A stage plans its partitions into one slab of
// slots, so what it allocates does not grow with its fan-out; the slab
// dies with the stage, the output headers (newVar) live on with the query.
type slot[O any] struct {
	chunkTask
	op O
}

// ThetaSelect plans algebra.thetasubselect: a full partitioned scan of a
// base-table column producing per-partition candidate lists (row OIDs) in
// variable out.
func ThetaSelect(table, col, out string, p Pred) StageFn {
	return func(q *Query) []Task {
		base := q.eng.store.Table(table)
		c := base.Col(col)
		ranges := partitionRanges(base.Rows, q.Fanout(), q.eng.cfg.MinPartRows)
		ps := q.newVar(out, KindI64, len(ranges))
		slab := make([]slot[FilterScan], len(ranges))
		q.tasks = q.tasks[:0]
		for i, r := range ranges {
			s := &slab[i]
			var buf []int64
			if p.form != predAll {
				buf = q.scratchI64(selHint(r[1] - r[0]))
			}
			s.op.init(c, &p, r[0], r[1], buf)
			s.op.q, s.op.out = q, ps.Parts[i]
			s.init("algebra.thetasubselect", q.Machine(), &s.op, r[0], r[1], cyclesScan, c)
			q.tasks = append(q.tasks, &s.chunkTask)
		}
		return q.tasks
	}
}

// SubSelect plans algebra.subselect: it refines candidate lists in
// variable in against a further predicate on a base column, producing out.
func SubSelect(in, table, col, out string, p Pred) StageFn {
	return func(q *Query) []Task {
		c := q.eng.store.Table(table).Col(col)
		inPS := q.Var(in)
		ps := q.newVar(out, KindI64, len(inPS.Parts))
		slab := make([]slot[FilterRefine], len(inPS.Parts))
		q.tasks = q.tasks[:0]
		for i, cand := range inPS.Parts {
			if cand == nil || cand.Len() == 0 {
				continue
			}
			s := &slab[i]
			s.op.init(c, &p, cand, q.scratchI64(selHint(cand.Len())))
			s.op.q, s.op.out = q, ps.Parts[i]
			s.gathers("algebra.subselect", q, &s.op, cand, c, cyclesGather)
			q.tasks = append(q.tasks, &s.chunkTask)
		}
		return q.tasks
	}
}

// Projection plans algebra.projection: it gathers base-column values at
// the candidate positions in variable in, producing aligned value
// fragments in out.
func Projection(in, table, col, out string) StageFn {
	return func(q *Query) []Task {
		c := q.eng.store.Table(table).Col(col)
		inPS := q.Var(in)
		ps := q.newVar(out, c.Kind, len(inPS.Parts))
		slab := make([]slot[Gather], len(inPS.Parts))
		q.tasks = q.tasks[:0]
		for i, cand := range inPS.Parts {
			if cand == nil || cand.Len() == 0 {
				continue
			}
			s, outB := &slab[i], ps.Parts[i]
			if c.Kind == KindI64 {
				outB.I = q.scratchI64(cand.Len())
			} else {
				outB.F = q.scratchF64(cand.Len())
			}
			s.op = Gather{col: c, cand: cand, out: outB, q: q}
			s.gathers("algebra.projection", q, &s.op, cand, c, cyclesGather)
			q.tasks = append(q.tasks, &s.chunkTask)
		}
		return q.tasks
	}
}

// MapF2 plans batcalc binary arithmetic over two aligned float variables
// (e.g. [*](extendedprice, discount)).
func MapF2(a, b, out string, f func(x, y float64) float64) StageFn {
	return func(q *Query) []Task {
		pa, pb := q.Var(a), q.Var(b)
		if len(pa.Parts) != len(pb.Parts) {
			panic(fmt.Sprintf("db: MapF2 over misaligned vars %s (%d parts) and %s (%d parts)", a, len(pa.Parts), b, len(pb.Parts)))
		}
		ps := q.newVar(out, KindF64, len(pa.Parts))
		slab := make([]slot[MapBinary], len(pa.Parts))
		q.tasks = q.tasks[:0]
		for i, fa := range pa.Parts {
			if fa == nil || fa.Len() == 0 {
				continue
			}
			s, fb := &slab[i], pb.Parts[i]
			s.op = MapBinary{a: fa, b: fb, f: f, res: q.scratchF64(fa.Len()), q: q, out: ps.Parts[i]}
			s.init("batcalc.*", q.Machine(), &s.op, 0, fa.Len(), cyclesMap, fa, fb)
			q.tasks = append(q.tasks, &s.chunkTask)
		}
		return q.tasks
	}
}

// SumF plans aggr.sum over a float variable: per-partition partials
// accumulate into the named scalar.
func SumF(in, scalar string) StageFn {
	return func(q *Query) []Task {
		ps := q.Var(in)
		slab := make([]slot[SumAgg], len(ps.Parts))
		q.tasks = q.tasks[:0]
		for i, frag := range ps.Parts {
			if frag == nil || frag.Len() == 0 {
				continue
			}
			s := &slab[i]
			s.op = SumAgg{in: frag, q: q, scalar: scalar}
			s.init("aggr.sum", q.Machine(), &s.op, 0, frag.Len(), cyclesSum, frag)
			q.tasks = append(q.tasks, &s.chunkTask)
		}
		return q.tasks
	}
}

// Count plans aggr.count over a variable, storing the row count in the
// named scalar.
func Count(in, scalar string) StageFn {
	return func(q *Query) []Task {
		q.SetScalar(scalar, float64(q.Var(in).Rows()))
		return nil
	}
}

// funcTask runs a closure once, then pays its computed cycle cost down
// across quanta (single-task combine operators: hash build, merges,
// sorts).
type funcTask struct {
	op   string
	pref numa.NodeID
	work func(ctx *sched.ExecContext) uint64

	started   bool
	remaining uint64
}

func (t *funcTask) Op() string                 { return t.op }
func (t *funcTask) PreferredNode() numa.NodeID { return t.pref }

func (t *funcTask) Step(ctx *sched.ExecContext, budget uint64) (uint64, bool) {
	if !t.started {
		t.started = true
		t.remaining = t.work(ctx)
	}
	if t.remaining <= budget {
		used := t.remaining
		t.remaining = 0
		return used, true
	}
	t.remaining -= budget
	return budget, false
}

// BuildMap plans a hash-join build side: a single task mapping keysVar to
// payloads from valsVar (or to 1 when valsVar is empty), bound to setName.
// The table is sized once, from the bounds of the key fragments where
// they make it positional and from the build side's row count otherwise.
func BuildMap(keysVar, valsVar, setName string) StageFn {
	return func(q *Query) []Task {
		keys := q.Var(keysVar)
		var vals *PartSet
		if valsVar != "" {
			vals = q.Var(valsVar)
		}
		t := &funcTask{op: "hash.build", pref: numa.NoNode}
		t.work = func(ctx *sched.ExecContext) uint64 {
			m := q.scratchMapII()
			lo, hi := noKeys()
			for _, frag := range keys.Parts {
				lo, hi = frag.widen(lo, hi)
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
				var vf *BAT
				if vals != nil {
					vf = vals.Parts[pi]
				}
				op := NewHashBuild(frag, vf, m)
				op.runRange(0, frag.Len())
				cost += uint64(frag.Len()) * cyclesBuild
			}
			q.SetSet(setName, m)
			return cost
		}
		return []Task{t}
	}
}

// ProbeSemi plans the probe side of a semijoin: candidate rows of inCand
// whose base-column value hits setName survive into outCand.
func ProbeSemi(inCand, table, col, setName, outCand string) StageFn {
	return probe(inCand, table, col, setName, outCand, "", false)
}

// ProbeFetch plans a fetch join: surviving candidates also gather the
// build side's payload into outVals (aligned with outCand).
func ProbeFetch(inCand, table, col, setName, outCand, outVals string) StageFn {
	return probe(inCand, table, col, setName, outCand, outVals, false)
}

// ProbeAnti plans an anti-join: candidates whose value does NOT hit the
// set survive (NOT EXISTS / NOT IN shapes).
func ProbeAnti(inCand, table, col, setName, outCand string) StageFn {
	return probe(inCand, table, col, setName, outCand, "", true)
}

func probe(inCand, table, col, setName, outCand, outVals string, anti bool) StageFn {
	return func(q *Query) []Task {
		c := q.eng.store.Table(table).Col(col)
		inPS := q.Var(inCand)
		set := q.Set(setName)
		ps := q.newVar(outCand, KindI64, len(inPS.Parts))
		var vps *PartSet
		if outVals != "" {
			vps = q.newVar(outVals, KindI64, len(inPS.Parts))
		}
		slab := make([]slot[HashProbe], len(inPS.Parts))
		q.tasks = q.tasks[:0]
		for i, cand := range inPS.Parts {
			if cand == nil || cand.Len() == 0 {
				continue
			}
			s := &slab[i]
			s.op = HashProbe{col: c, cand: cand, set: set, anti: anti, fetch: vps != nil,
				ids: q.scratchI64(selHint(cand.Len())), q: q, out: ps.Parts[i]}
			if vps != nil {
				s.op.payloads, s.op.payOut = q.scratchI64(selHint(cand.Len())), vps.Parts[i]
			}
			s.gathers("join.probe", q, &s.op, cand, c, cyclesProbe)
			q.tasks = append(q.tasks, &s.chunkTask)
		}
		return q.tasks
	}
}

// PredAll matches every row of either kind (full scans).
func PredAll() Pred {
	return Pred{
		I:    func(int64) bool { return true },
		F:    func(float64) bool { return true },
		form: predAll,
	}
}

// ScanAll plans a full scan over a base column producing all row OIDs
// (the sql.tid pattern: a candidate list covering the table).
func ScanAll(table, col, out string) StageFn {
	return ThetaSelect(table, col, out, PredAll())
}

// PointLookup plans an index-style point read (algebra.find): one short
// task binary-searches the sorted key column of table for key and, on a
// hit, projects the value column at that row into the named scalar
// (misses leave it at zero; outScalar+".found" counts hits). Against the
// fan-out scans above this is the core-scalability extreme: a handful of
// probes in a single task, with nothing for additional cores to do —
// the OLTP half of a heterogeneous tenant mix.
func PointLookup(table, keyCol, valCol string, key int64, outScalar string) StageFn {
	return func(q *Query) []Task {
		tb := q.eng.store.Table(table)
		kc, vc := tb.Col(keyCol), tb.Col(valCol)
		t := &funcTask{op: "algebra.find", pref: numa.NoNode}
		t.work = func(ctx *sched.ExecContext) uint64 {
			var cost uint64
			row, probes, ok := lookupVisit(kc.I, key, func(mid int) {
				cost += kc.chargeRange(ctx, mid, mid+1, false)
			})
			cost += uint64(probes+1) * cyclesProbe
			q.SetScalar(outScalar, 0)
			if ok {
				cost += vc.chargeRange(ctx, row, row+1, false)
				var v float64
				if vc.Kind == KindI64 {
					v = float64(vc.I[row])
				} else {
					v = vc.F[row]
				}
				q.SetScalar(outScalar, v)
				q.AddScalar(outScalar+".found", 1)
			}
			return cost
		}
		return []Task{t}
	}
}

// GroupSum plans the partial phase of a grouped aggregation: per-partition
// hash maps of keysVar -> sum(valsVar), stored on the query under
// partialsName. An empty valsVar counts rows per group instead. Pair it
// with GroupMerge as the following stage — the two-phase grouping the
// paper credits HyPer/BLU with (local build, then merge).
func GroupSum(keysVar, valsVar, partialsName string) StageFn {
	return func(q *Query) []Task {
		keys := q.Var(keysVar)
		vals := keys // count mode: alignment only
		if valsVar != "" {
			vals = q.Var(valsVar)
		}
		if len(keys.Parts) != len(vals.Parts) {
			panic(fmt.Sprintf("db: GroupSum misaligned %s/%s", keysVar, valsVar))
		}
		partials := make([]*i64fMap, len(keys.Parts))
		q.setPartials(partialsName, partials)
		slab := make([]slot[GroupAgg], len(keys.Parts))
		q.tasks = q.tasks[:0]
		for i, kf := range keys.Parts {
			if kf == nil || kf.Len() == 0 {
				continue
			}
			s, vf := &slab[i], vals.Parts[i]
			if valsVar == "" {
				vf = nil // count mode
			}
			// A partial over a dense enough key range is sized here, once;
			// one left in hash form grows by doubling, its distinct count
			// being unknown.
			partials[i] = q.scratchMapIF()
			lo, hi := kf.widen(noKeys())
			partials[i].tryPositional(lo, hi, kf.Len(), false)
			s.op = GroupAgg{keys: kf.byPosition(), vals: vf.byPosition(), agg: partials[i]}
			s.init("group.sum", q.Machine(), &s.op, 0, kf.Len(), cyclesGroup, kf, vf)
			q.tasks = append(q.tasks, &s.chunkTask)
		}
		return q.tasks
	}
}

// GroupMerge plans the merge phase after GroupSum: a single mat.pack-style
// task combining the partial maps into outKeys/outSums (single-fragment
// PartSets, keys ascending). The total is sized once, positional over the
// union of the partials' key bounds where that fits.
func GroupMerge(partialsName, outKeys, outSums string) StageFn {
	return func(q *Query) []Task {
		partials := q.partialsOf(partialsName)
		merge := &funcTask{op: "mat.pack", pref: numa.NoNode}
		merge.work = func(ctx *sched.ExecContext) uint64 {
			n := 0
			lo, hi := noKeys()
			for _, m := range partials {
				if m != nil {
					n += m.Len()
					lo, hi = m.widen(lo, hi)
				}
			}
			total := q.scratchMapIF()
			if !total.tryPositional(lo, hi, n, false) {
				total.reserve(n)
			}
			add := total.Add
			for _, m := range partials {
				if m != nil {
					m.Range(add)
				}
			}
			// Every buffer drawn goes back to the pool, registered once: the
			// sorted pair is the first or (hash form only) the scratch pair.
			ks, sums := q.scratchI64(total.Len()), q.scratchF64(total.Len())
			q.ownI64(ks)
			q.ownF64(sums)
			ks, sums = sortedGroups(total, ks, sums, func(n int) ([]int64, []float64) {
				tk, ts := q.scratchI64(n)[:n], q.scratchF64(n)[:n]
				q.ownI64(tk)
				q.ownF64(ts)
				return tk, ts
			})
			kb, sb := NewI64(outKeys, ks), NewF64(outSums, sums)
			q.SetVar(outKeys, &PartSet{Parts: []*BAT{kb}})
			q.SetVar(outSums, &PartSet{Parts: []*BAT{sb}})
			cost := uint64(n)*cyclesGroup + uint64(len(ks))*cyclesSort
			cost += kb.chargeRange(ctx, 0, kb.Len(), true)
			cost += sb.chargeRange(ctx, 0, sb.Len(), true)
			return cost
		}
		return []Task{merge}
	}
}

// GroupFilter plans a single task dropping merged groups whose sum fails
// the predicate (HAVING clauses); outKeys/outSums are filtered in place.
func GroupFilter(outKeys, outSums string, keep func(sum float64) bool) StageFn {
	return func(q *Query) []Task {
		t := &funcTask{op: "group.filter", pref: numa.NoNode}
		t.work = func(ctx *sched.ExecContext) uint64 {
			keys, sums := q.Var(outKeys).valuesI64(), q.Var(outSums).valuesF64()
			ks := q.scratchI64(len(keys))
			ss := q.scratchF64(len(sums))
			for i, s := range sums {
				if keep(s) {
					ks = append(ks, keys[i])
					ss = append(ss, s)
				}
			}
			q.ownI64(ks)
			q.ownF64(ss)
			q.SetVar(outKeys, &PartSet{Parts: []*BAT{NewI64(outKeys, ks)}})
			q.SetVar(outSums, &PartSet{Parts: []*BAT{NewF64(outSums, ss)}})
			return uint64(len(keys)) * cyclesMap
		}
		return []Task{t}
	}
}

// TopN plans a final single-task sort of the merged outSums descending,
// keeping n groups; results replace outKeys/outSums.
func TopN(outKeys, outSums string, n int) StageFn {
	return func(q *Query) []Task {
		t := &funcTask{op: "algebra.topn", pref: numa.NoNode}
		t.work = func(ctx *sched.ExecContext) uint64 {
			keys, sums := q.Var(outKeys).valuesI64(), q.Var(outSums).valuesF64()
			idx := topNIndex(sums, n)
			ks := q.scratchI64(len(idx))[:len(idx)]
			ss := q.scratchF64(len(idx))[:len(idx)]
			for i, j := range idx {
				ks[i] = keys[j]
				ss[i] = sums[j]
			}
			q.ownI64(ks)
			q.ownF64(ss)
			q.SetVar(outKeys, &PartSet{Parts: []*BAT{NewI64(outKeys, ks)}})
			q.SetVar(outSums, &PartSet{Parts: []*BAT{NewF64(outSums, ss)}})
			return uint64(len(keys)) * cyclesSort
		}
		return []Task{t}
	}
}
