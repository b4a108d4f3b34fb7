package db

import "sort"

// vops.go is the pluggable vectorized operator layer. Each operator of
// the MAL-like set — leaf filter scans, candidate refinement, gather
// projection, binary maps, aggregates, hash build/probe, group
// aggregation and point lookup — is an object wrapping the
// form-specialized kernel loops, drivable two ways:
//
//   - Inside the engine, a lowering function (operators.go) embeds the
//     operator value in its stage's slab beside a chunkTask, which drives
//     it through the kernel interface (task.go): the task walks the input
//     in block-sized chunks, charging BOTH the per-tuple compute cycles
//     and the simulated NUMA memory accesses itself, while compute runs
//     the whole partition as one job beside the model (beside.go) — or
//     runRange runs each chunk, where there is nothing to compute (a
//     replayed or full scan, a view) — then complete, once, which
//     delivers the partition's result to the query (the engine-drive
//     fields at the end of each operator; a standalone drive leaves them
//     zero). This is the only drive mode queries use.
//
//   - Standalone, Next(n) consumes up to n input units (base rows for
//     leaf scans, candidate positions for refinements/probes/gathers,
//     value rows for maps and aggregates) and returns the batch those
//     units produced: an empty BAT when nothing survived, nil once the
//     input is exhausted. Aggregating operators emit their result as one
//     final batch after the last input unit, then return nil. Next
//     charges the operator's Meter with the same per-tuple compute
//     constants the engine charges (cyclesScan, cyclesGather, ...);
//     simulated memory accesses need an ExecContext and remain the
//     driving task's job. The differential harness (diff_test.go) drives
//     this mode against row-at-a-time references and asserts identical
//     outputs and identical charged cycles.
//
// Both modes run the same kernel loops over the same state — compute is
// runRange over the whole partition, into scratch where the output's size
// is unknown — so agreement in one mode is agreement in the other.

// Operator is the pluggable batch-iterator contract of the vectorized
// execution layer.
type Operator interface {
	// Next consumes up to n input units and returns the produced batch;
	// nil reports exhaustion. n <= 0 consumes nothing and returns an
	// empty batch (still non-nil before exhaustion).
	Next(n int) *BAT
	// Op returns the operator's MAL-ish label (matches the engine's task
	// labels, e.g. "algebra.thetasubselect").
	Op() string
	// Charged returns the compute cycles charged by Next calls so far.
	Charged() uint64
}

// meter accumulates the per-tuple compute cycles of standalone Next
// drives.
type meter struct{ cycles uint64 }

func (m *meter) add(units int, perTuple uint64) {
	if units > 0 {
		m.cycles += uint64(units) * perTuple
	}
}

// span clamps a Next request to the remaining input [cursor, hi).
func span(cursor, n, hi int) int {
	if n < 0 {
		n = 0
	}
	if rem := hi - cursor; n > rem {
		n = rem
	}
	return n
}

// tailView returns a BAT over the values appended beyond mark, capped so
// later in-place growth cannot leak into the returned batch.
func tailViewI64(name string, buf []int64, mark int) *BAT {
	return NewI64(name, buf[mark:len(buf):len(buf)])
}

func tailViewF64(name string, buf []float64, mark int) *BAT {
	return NewF64(name, buf[mark:len(buf):len(buf)])
}

// FilterScan is the leaf selection operator (algebra.thetasubselect): it
// scans base rows [lo, hi) of a column and accumulates matching row OIDs.
// One input unit is one base row; one output value is one surviving OID.
// Under PredAll there is nothing to test and nothing to write: the rows
// scanned so far are the result, as a dense candidate list.
type FilterScan struct {
	col    *BAT
	pred   *Pred
	ids    []int64
	lo, hi int
	all    int // rows scanned under PredAll: the result is [lo, lo+all)

	cursor int
	m      meter

	// Engine drive: the header the result fills, and the recycler's part
	// (recycle.go): replay marks ids as a kept list the kernel need not
	// compute, keep the entry that keeps the lists this stage computes.
	out    *BAT
	replay bool
	keep   *selEntry
}

// NewFilterScan builds the operator over rows [lo, hi) of col. buf seeds
// the OID accumulator (nil starts it empty).
func NewFilterScan(col *BAT, p Pred, lo, hi int, buf []int64) *FilterScan {
	s := &struct {
		FilterScan
		p Pred
	}{p: p}
	s.init(col, &s.p, lo, hi, buf)
	return &s.FilterScan
}

// init is NewFilterScan on a zero operator in place, over a predicate the
// caller keeps. A predicate with no arm for col's kind panics here.
func (fs *FilterScan) init(col *BAT, p *Pred, lo, hi int, buf []int64) {
	p.mustFit(col)
	fs.col, fs.pred, fs.ids = col, p, buf
	fs.lo, fs.hi, fs.cursor = lo, hi, lo
}

// runRange runs the kernel over base rows [a, b) (engine drive: chunks
// arrive in order from lo, of a replayed or full scan only).
func (fs *FilterScan) runRange(a, b int) {
	switch {
	case fs.replay:
	case fs.pred.form == predAll:
		fs.all += b - a
	default:
		fs.ids = selectScan(fs.col, fs.pred, fs.ids, a, b)
	}
}

// compute implements jobKernel: the survivors of the partition, in s.
func (fs *FilterScan) compute(s *scratch) {
	s.ids = selectScan(fs.col, fs.pred, s.ids[:0], fs.lo, fs.hi)
	fs.ids = s.ids
}

// unsized implements jobKernel.
func (fs *FilterScan) unsized() (*[]int64, *[]int64) { return &fs.ids, nil }

// fill makes out the candidate list accumulated so far.
func (fs *FilterScan) fill(out *BAT) {
	if fs.pred.form == predAll {
		out.seq, out.n = fs.lo, fs.all
		return
	}
	out.I = fs.ids
}

// complete implements kernel: the candidate list fills the header, a
// replayed one as a view.
func (fs *FilterScan) complete() (*BAT, *BAT) {
	fs.fill(fs.out)
	fs.out.view = fs.replay
	if fs.keep != nil {
		fs.keep.done()
	}
	return fs.out, nil
}

// Op implements Operator.
func (fs *FilterScan) Op() string { return "algebra.thetasubselect" }

// Charged implements Operator.
func (fs *FilterScan) Charged() uint64 { return fs.m.cycles }

// Next implements Operator: scans up to n base rows.
func (fs *FilterScan) Next(n int) *BAT {
	if fs.cursor >= fs.hi {
		return nil
	}
	n = span(fs.cursor, n, fs.hi)
	mark := len(fs.ids)
	fs.runRange(fs.cursor, fs.cursor+n)
	fs.cursor += n
	fs.m.add(n, cyclesScan)
	if fs.pred.form == predAll {
		return newDense(fs.col.Name+".sel", fs.cursor-n, n)
	}
	return tailViewI64(fs.col.Name+".sel", fs.ids, mark)
}

// FilterRefine is the candidate refinement operator (algebra.subselect):
// it tests the base column at each candidate OID and keeps survivors. One
// input unit is one candidate position.
type FilterRefine struct {
	col, cand *BAT
	pred      *Pred
	ids       []int64

	cursor int
	m      meter

	// Engine drive, as FilterScan's.
	out    *BAT
	replay bool
	keep   *selEntry
}

// NewFilterRefine builds the operator over the candidate list cand.
func NewFilterRefine(col *BAT, p Pred, cand *BAT, buf []int64) *FilterRefine {
	s := &struct {
		FilterRefine
		p Pred
	}{p: p}
	s.init(col, &s.p, cand, buf)
	return &s.FilterRefine
}

// init is NewFilterRefine on a zero operator in place, over a predicate
// the caller keeps. A predicate with no arm for col's kind panics here.
func (fr *FilterRefine) init(col *BAT, p *Pred, cand *BAT, buf []int64) {
	p.mustFit(col)
	fr.col, fr.cand, fr.pred, fr.ids = col, cand, p, buf
}

func (fr *FilterRefine) runRange(a, b int) {
	if b = min(b, fr.cand.Len()); a < b && !fr.replay {
		fr.ids = gatherScan(fr.col, fr.pred, fr.cand, fr.ids, a, b)
	}
}

// compute implements jobKernel: the surviving candidates, in s.
func (fr *FilterRefine) compute(s *scratch) {
	s.ids = gatherScan(fr.col, fr.pred, fr.cand, s.ids[:0], 0, fr.cand.Len())
	fr.ids = s.ids
}

// unsized implements jobKernel.
func (fr *FilterRefine) unsized() (*[]int64, *[]int64) { return &fr.ids, nil }

// complete implements kernel: the surviving candidates fill the header, a
// replayed list as a view.
func (fr *FilterRefine) complete() (*BAT, *BAT) {
	fr.out.I, fr.out.view = fr.ids, fr.replay
	if fr.keep != nil {
		fr.keep.done()
	}
	return fr.out, nil
}

// Op implements Operator.
func (fr *FilterRefine) Op() string { return "algebra.subselect" }

// Charged implements Operator.
func (fr *FilterRefine) Charged() uint64 { return fr.m.cycles }

// Next implements Operator: tests up to n candidate positions.
func (fr *FilterRefine) Next(n int) *BAT {
	if fr.cursor >= fr.cand.Len() {
		return nil
	}
	n = span(fr.cursor, n, fr.cand.Len())
	mark := len(fr.ids)
	fr.runRange(fr.cursor, fr.cursor+n)
	fr.cursor += n
	fr.m.add(n, cyclesGather)
	return tailViewI64(fr.col.Name+".sel", fr.ids, mark)
}

// Gather is the projection operator (algebra.projection): it fetches the
// base column's value at each candidate OID, producing a value vector
// aligned with the candidate list. One input unit is one candidate.
type Gather struct {
	col, cand *BAT
	out       *BAT

	cursor int
	m      meter
}

// NewGather builds the operator; out receives the gathered values and
// must match col's kind (its tail may be a pooled scratch buffer).
func NewGather(col, cand, out *BAT) *Gather {
	return &Gather{col: col, cand: cand, out: out}
}

func (g *Gather) runRange(a, b int) {
	cand, c, outB := g.cand, g.col, g.out
	if b = min(b, cand.Len()); a >= b || outB.view {
		return // a view: its readers read those rows through it
	}
	if cand.n > 0 { // positions a … b are rows seq+a … seq+b: a slice copy
		lo, hi := cand.seq+a, cand.seq+b
		if c.Kind == KindI64 {
			outB.I = append(outB.I, c.I[lo:hi]...)
		} else {
			outB.F = append(outB.F, c.F[lo:hi]...)
		}
		return
	}
	cids := cand.I[a:b]
	if c.Kind == KindI64 {
		vals, buf := growFor(outB.I, len(cids))
		for k, cid := range cids {
			buf[k] = c.I[cid]
		}
		outB.I = vals[:len(vals)+len(cids)]
	} else {
		vals, buf := growFor(outB.F, len(cids))
		for k, cid := range cids {
			buf[k] = c.F[cid]
		}
		outB.F = vals[:len(vals)+len(cids)]
	}
}

// compute implements jobKernel: out's buffer was drawn at lowering.
func (g *Gather) compute(*scratch) { g.runRange(0, g.cand.Len()) }

// unsized implements jobKernel.
func (g *Gather) unsized() (*[]int64, *[]int64) { return nil, nil }

// complete implements kernel: out was the header all along.
func (g *Gather) complete() (*BAT, *BAT) { return g.out, nil }

// Op implements Operator.
func (g *Gather) Op() string { return "algebra.projection" }

// Charged implements Operator.
func (g *Gather) Charged() uint64 { return g.m.cycles }

// Next implements Operator: gathers up to n candidate positions.
func (g *Gather) Next(n int) *BAT {
	if g.cursor >= g.cand.Len() {
		return nil
	}
	n = span(g.cursor, n, g.cand.Len())
	markI, markF := len(g.out.I), len(g.out.F)
	g.runRange(g.cursor, g.cursor+n)
	g.cursor += n
	g.m.add(n, cyclesGather)
	if g.col.Kind == KindI64 {
		return tailViewI64(g.out.Name, g.out.I, markI)
	}
	return tailViewF64(g.out.Name, g.out.F, markF)
}

// MapBinary is the batcalc binary arithmetic operator: out[k] =
// f(a[k], b[k]) over two aligned float vectors, read a strip at a time.
// One input unit is one aligned row.
type MapBinary struct {
	a, b vec
	f    func(x, y float64) float64
	res  []float64

	cursor int
	m      meter

	out *BAT // engine drive: the header the result fills
}

// NewMapBinary builds the operator over aligned float BATs a and b.
func NewMapBinary(a, b *BAT, f func(x, y float64) float64, buf []float64) *MapBinary {
	return &MapBinary{a: vec{BAT: a}, b: vec{BAT: b}, f: f, res: buf}
}

func (mb *MapBinary) runRange(lo, hi int) {
	f := mb.f
	if hi = min(hi, mb.a.floatRows()); lo >= hi {
		return
	}
	res, buf := growFor(mb.res, hi-lo)
	var sa, sb floatStrip
	for a := lo; a < hi; a += stripRows {
		b := min(a+stripRows, hi)
		xs, ys, out := mb.a.floats(a, b, &sa), mb.b.floats(a, b, &sb), buf[a-lo:b-lo]
		for k, x := range xs {
			out[k] = f(x, ys[k])
		}
	}
	mb.res = res[:len(res)+hi-lo]
}

// compute implements jobKernel: res was drawn at lowering.
func (mb *MapBinary) compute(*scratch) { mb.runRange(0, mb.a.Len()) }

// unsized implements jobKernel.
func (mb *MapBinary) unsized() (*[]int64, *[]int64) { return nil, nil }

// complete implements kernel: the mapped values fill the header.
func (mb *MapBinary) complete() (*BAT, *BAT) {
	mb.out.F = mb.res
	return mb.out, nil
}

// Op implements Operator.
func (mb *MapBinary) Op() string { return "batcalc.*" }

// Charged implements Operator.
func (mb *MapBinary) Charged() uint64 { return mb.m.cycles }

// Next implements Operator: maps up to n aligned rows.
func (mb *MapBinary) Next(n int) *BAT {
	if mb.cursor >= mb.a.Len() {
		return nil
	}
	n = span(mb.cursor, n, mb.a.Len())
	mark := len(mb.res)
	mb.runRange(mb.cursor, mb.cursor+n)
	mb.cursor += n
	mb.m.add(n, cyclesMap)
	return tailViewF64(mb.a.Name+".map", mb.res, mark)
}

// SumAgg is the aggr.sum operator: it folds a float vector, read a strip
// at a time, into one scalar, emitted as a single-row batch once the input
// is exhausted.
type SumAgg struct {
	in      vec
	partial float64

	cursor  int
	emitted bool
	m       meter

	// Engine drive: the query and the scalar the partial accumulates into.
	q      *Query
	scalar string
}

// NewSumAgg builds the operator over the float BAT in.
func NewSumAgg(in *BAT) *SumAgg { return &SumAgg{in: vec{BAT: in}} }

func (s *SumAgg) runRange(a, b int) {
	var buf floatStrip
	for b = min(b, s.in.floatRows()); a < b; a += stripRows {
		for _, x := range s.in.floats(a, min(a+stripRows, b), &buf) {
			s.partial += x
		}
	}
}

// compute implements jobKernel.
func (s *SumAgg) compute(*scratch) { s.runRange(0, s.in.Len()) }

// unsized implements jobKernel.
func (s *SumAgg) unsized() (*[]int64, *[]int64) { return nil, nil }

// complete implements kernel: the partial joins the scalar; nothing is
// written.
func (s *SumAgg) complete() (*BAT, *BAT) {
	s.q.AddScalar(s.scalar, s.partial)
	return nil, nil
}

// Op implements Operator.
func (s *SumAgg) Op() string { return "aggr.sum" }

// Charged implements Operator.
func (s *SumAgg) Charged() uint64 { return s.m.cycles }

// Next implements Operator: consumes up to n rows; the sum arrives as a
// one-row batch after the last row.
func (s *SumAgg) Next(n int) *BAT {
	if s.cursor < s.in.Len() {
		n = span(s.cursor, n, s.in.Len())
		s.runRange(s.cursor, s.cursor+n)
		s.cursor += n
		s.m.add(n, cyclesSum)
		if s.cursor < s.in.Len() {
			return NewF64(s.in.Name+".sum", nil)
		}
	}
	if s.emitted {
		return nil
	}
	s.emitted = true
	return NewF64(s.in.Name+".sum", []float64{s.partial})
}

// HashBuild is the hash-join build-side operator: it inserts key →
// payload pairs, read a strip at a time, into an i64Map (payload 1 when
// vals is nil, the semijoin membership case). One input unit is one key
// row; the build side itself is the product, exposed by Result.
type HashBuild struct {
	keys, vals vec
	set        *i64Map

	cursor  int
	emitted bool
	m       meter
}

// NewHashBuild builds the operator inserting into set (pass a pooled
// scratch map inside the engine).
func NewHashBuild(keys, vals *BAT, set *i64Map) *HashBuild {
	return &HashBuild{keys: vec{BAT: keys}, vals: vec{BAT: vals}, set: set}
}

func (hb *HashBuild) runRange(a, b int) {
	vals, set := hb.vals, hb.set
	var kb, pb intStrip
	var fb floatStrip
	for b = min(b, hb.keys.Len()); a < b; a += stripRows {
		e := min(a+stripRows, b)
		keys := hb.keys.ints(a, e, &kb)
		switch {
		case vals.BAT == nil:
			for _, k := range keys {
				set.Put(k, 1)
			}
		case vals.Kind == KindI64:
			for i, p := range vals.ints(a, e, &pb) {
				set.Put(keys[i], p)
			}
		default:
			for i, p := range vals.floats(a, e, &fb) {
				set.Put(keys[i], int64(p))
			}
		}
	}
}

// Result returns the build table.
func (hb *HashBuild) Result() *i64Map { return hb.set }

// Op implements Operator.
func (hb *HashBuild) Op() string { return "hash.build" }

// Charged implements Operator.
func (hb *HashBuild) Charged() uint64 { return hb.m.cycles }

// Next implements Operator: inserts up to n key rows; the final batch
// carries the table's size.
func (hb *HashBuild) Next(n int) *BAT {
	if hb.cursor < hb.keys.Len() {
		n = span(hb.cursor, n, hb.keys.Len())
		hb.runRange(hb.cursor, hb.cursor+n)
		hb.cursor += n
		hb.m.add(n, cyclesBuild)
		if hb.cursor < hb.keys.Len() {
			return NewI64(hb.keys.Name+".build", nil)
		}
	}
	if hb.emitted {
		return nil
	}
	hb.emitted = true
	return NewI64(hb.keys.Name+".build", []int64{int64(hb.set.Len())})
}

// HashProbe is the probe-side operator of semi, fetch and anti joins: it
// looks the base column's value at each candidate OID up in the build
// table and keeps survivors (hits, or misses when anti). Fetch mode
// additionally gathers the build side's payloads, exposed by Payloads.
// One input unit is one candidate position.
type HashProbe struct {
	col, cand *BAT
	set       *i64Map
	anti      bool
	fetch     bool

	ids, payloads []int64

	cursor int
	m      meter

	// Engine drive: the headers ids and payloads fill (payOut in fetch mode
	// only).
	out, payOut *BAT
}

// NewHashProbe builds the operator; idBuf and payloadBuf seed the output
// accumulators (payloadBuf is only used in fetch mode).
func NewHashProbe(col, cand *BAT, set *i64Map, anti, fetch bool, idBuf, payloadBuf []int64) *HashProbe {
	return &HashProbe{col: col, cand: cand, set: set, anti: anti, fetch: fetch, ids: idBuf, payloads: payloadBuf}
}

func (hp *HashProbe) runRange(a, b int) {
	if b = min(b, hp.cand.Len()); a < b {
		hp.probe(a, b)
	}
}

// compute implements jobKernel: the survivors, and in fetch mode their
// payloads, in s.
func (hp *HashProbe) compute(s *scratch) {
	hp.ids, hp.payloads = s.ids[:0], s.pays[:0]
	hp.probe(0, hp.cand.Len())
	s.ids, s.pays = hp.ids, hp.payloads
}

// unsized implements jobKernel.
func (hp *HashProbe) unsized() (*[]int64, *[]int64) {
	if hp.fetch {
		return &hp.ids, &hp.payloads
	}
	return &hp.ids, nil
}

// probe is the kernel over candidate positions [a, b), within the list.
// The table's form is tested once: a positional table is probed by a
// subtract, a bounds test and a bit test per row; everything else (the
// hash form, and a fetch from a membership set, whose payloads are all 1)
// goes through Get.
func (hp *HashProbe) probe(a, b int) {
	cand, vals, set, fetch, anti := hp.cand, hp.col.I, hp.set, hp.fetch, hp.anti
	ids, idBuf := growFor(hp.ids, b-a)
	pays, payBuf := hp.payloads, []int64(nil)
	if fetch {
		pays, payBuf = growFor(pays, b-a)
	}
	k := 0
	positional := set.span > 0 && !(fetch && set.member)
	base, span, present, byPos := uint64(set.base), set.span, set.bits, set.byPos
	switch {
	case positional && cand.n > 0: // positions a … b are rows seq+a … seq+b
		for row := cand.seq + a; row < cand.seq+b; row++ {
			i := uint64(vals[row]) - base
			hit := i < span && present[i>>6]>>(i&63)&1 != 0
			idBuf[k] = int64(row)
			if fetch {
				payBuf[k] = 0
				if hit {
					payBuf[k] = byPos[i]
				}
			}
			k += b2i(hit != anti)
		}
	case positional:
		for _, cid := range cand.I[a:b] {
			i := uint64(vals[cid]) - base
			hit := i < span && present[i>>6]>>(i&63)&1 != 0
			idBuf[k] = cid
			if fetch {
				payBuf[k] = 0
				if hit {
					payBuf[k] = byPos[i]
				}
			}
			k += b2i(hit != anti)
		}
	case cand.n > 0:
		for row := cand.seq + a; row < cand.seq+b; row++ {
			payload, hit := set.Get(vals[row])
			idBuf[k] = int64(row)
			if fetch {
				payBuf[k] = payload
			}
			k += b2i(hit != anti)
		}
	default:
		for _, cid := range cand.I[a:b] {
			payload, hit := set.Get(vals[cid])
			idBuf[k] = cid
			if fetch {
				payBuf[k] = payload
			}
			k += b2i(hit != anti)
		}
	}
	hp.ids = ids[:len(ids)+k]
	if fetch {
		hp.payloads = pays[:len(pays)+k]
	}
}

// complete implements kernel: survivors, and in fetch mode their payloads,
// fill the two headers, charged as written in that order.
func (hp *HashProbe) complete() (*BAT, *BAT) {
	hp.out.I = hp.ids
	if hp.fetch {
		hp.payOut.I = hp.payloads
	}
	return hp.out, hp.payOut
}

// Payloads returns the gathered build-side payloads (fetch mode).
func (hp *HashProbe) Payloads() []int64 { return hp.payloads }

// Op implements Operator.
func (hp *HashProbe) Op() string { return "join.probe" }

// Charged implements Operator.
func (hp *HashProbe) Charged() uint64 { return hp.m.cycles }

// Next implements Operator: probes up to n candidate positions.
func (hp *HashProbe) Next(n int) *BAT {
	if hp.cursor >= hp.cand.Len() {
		return nil
	}
	n = span(hp.cursor, n, hp.cand.Len())
	mark := len(hp.ids)
	hp.runRange(hp.cursor, hp.cursor+n)
	hp.cursor += n
	hp.m.add(n, cyclesProbe)
	return tailViewI64(hp.col.Name+".probe", hp.ids, mark)
}

// GroupAgg is the partial phase of grouped aggregation (group.sum): it
// accumulates sum(vals) per key, read a strip at a time, into an i64fMap
// (count per key when vals is nil). One input unit is one key row.
// Finalize merges and sorts the table into aligned key/sum vectors,
// mirroring the engine's mat.pack phase for a single partition.
type GroupAgg struct {
	keys, vals vec
	agg        *i64fMap

	cursor  int
	emitted bool
	m       meter
}

// NewGroupAgg builds the operator accumulating into agg (pass a pooled
// scratch map inside the engine; vals nil counts rows per key).
func NewGroupAgg(keys, vals *BAT, agg *i64fMap) *GroupAgg {
	return &GroupAgg{keys: vec{BAT: keys}, vals: vec{BAT: vals}, agg: agg}
}

func (ga *GroupAgg) runRange(a, b int) {
	vf := ga.vals
	var kb, ib intStrip
	var fb floatStrip
	for b = min(b, ga.keys.Len()); a < b; a += stripRows {
		e := min(a+stripRows, b)
		keys := ga.keys.ints(a, e, &kb)
		switch {
		case vf.BAT == nil:
			ga.agg.addAll(keys, nil)
		case vf.Kind == KindF64 && vf.Len() >= e:
			ga.agg.addAll(keys, vf.floats(a, e, &fb))
		default: // integer values, or fewer values than keys (the rest count 1)
			vs, n := fb[:len(keys)], max(min(e, vf.Len())-a, 0)
			switch {
			case n == 0:
			case vf.Kind == KindF64:
				copy(vs, vf.floats(a, a+n, &fb))
			default:
				for k, x := range vf.ints(a, a+n, &ib) {
					vs[k] = float64(x)
				}
			}
			for k := n; k < len(vs); k++ {
				vs[k] = 1
			}
			ga.agg.addAll(keys, vs)
		}
	}
}

// compute implements jobKernel: agg was drawn at lowering.
func (ga *GroupAgg) compute(*scratch) { ga.runRange(0, ga.keys.Len()) }

// unsized implements jobKernel.
func (ga *GroupAgg) unsized() (*[]int64, *[]int64) { return nil, nil }

// complete implements kernel. It delivers nothing: lowerGroupSum binds the
// partial table when it plans the stage.
func (ga *GroupAgg) complete() (*BAT, *BAT) { return nil, nil }

// Result returns the partial table.
func (ga *GroupAgg) Result() *i64fMap { return ga.agg }

// Finalize sorts the accumulated groups by key ascending and returns the
// aligned key and sum vectors, charging the engine's merge cost formula
// (cyclesGroup per merged entry plus cyclesSort per group).
func (ga *GroupAgg) Finalize() (keys []int64, sums []float64) {
	keys, sums, _, _ = sortedGroups(ga.agg, nil, nil, heapPairs)
	ga.m.add(ga.agg.Len(), cyclesGroup)
	ga.m.add(len(keys), cyclesSort)
	return keys, sums
}

// Op implements Operator.
func (ga *GroupAgg) Op() string { return "group.sum" }

// Charged implements Operator.
func (ga *GroupAgg) Charged() uint64 { return ga.m.cycles }

// Next implements Operator: accumulates up to n key rows; the final batch
// carries the sorted group keys.
func (ga *GroupAgg) Next(n int) *BAT {
	if ga.cursor < ga.keys.Len() {
		n = span(ga.cursor, n, ga.keys.Len())
		ga.runRange(ga.cursor, ga.cursor+n)
		ga.cursor += n
		ga.m.add(n, cyclesGroup)
		if ga.cursor < ga.keys.Len() {
			return NewI64(ga.keys.Name+".group", nil)
		}
	}
	if ga.emitted {
		return nil
	}
	ga.emitted = true
	ks, _, _, _ := sortedGroups(ga.agg, nil, nil, heapPairs)
	return NewI64(ga.keys.Name+".group", ks)
}

// topNIndex returns the indices of the n largest sums in rank order (all
// rows when n exceeds the input) under the total order "larger sum first,
// then smaller index" — the ranking of a stable descending sort, without
// sorting the rows that do not make the cut: a bounded heap keeps the n
// best seen so far with the worst of them at its root. It is the whole
// ranking of the engine's OpTopN stage.
func topNIndex(sums []float64, n int) []int {
	n = max(0, min(n, len(sums)))
	ahead := func(a, b int) bool { return sums[a] > sums[b] || (sums[a] == sums[b] && a < b) }
	kept := make([]int, n)
	for i := range kept {
		kept[i] = i
	}
	sink := func(i int) {
		for {
			worst := i
			for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
				if ahead(kept[worst], kept[c]) {
					worst = c
				}
			}
			if worst == i {
				return
			}
			kept[i], kept[worst] = kept[worst], kept[i]
			i = worst
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		sink(i)
	}
	for i := n; i < len(sums) && n > 0; i++ {
		if ahead(i, kept[0]) {
			kept[0] = i
			sink(0)
		}
	}
	sort.Slice(kept, func(x, y int) bool { return ahead(kept[x], kept[y]) })
	return kept
}

// sortedGroups returns agg's groups as aligned key/sum vectors in
// ascending key order, built on ks/vs (empty, ideally with room for
// agg.Len() entries) — the one way groups are emitted. It walks the table
// in slot order, which is key order in positional form; only a hash-form
// table's pairs are sorted, through the equally long pair scratch(n)
// supplies, and either pair may be the one returned; the other is returned
// as the spare (nil in positional form).
func sortedGroups(agg *i64fMap, ks []int64, vs []float64, scratch func(n int) ([]int64, []float64)) (keys []int64, sums []float64, spareK []int64, spareV []float64) {
	agg.Range(func(k int64, v float64) {
		ks = append(ks, k)
		vs = append(vs, v)
	})
	if agg.span > 0 {
		return ks, vs, nil, nil
	}
	tk, tv := scratch(len(ks))
	return sortPairs(ks, vs, tk, tv)
}

// heapPairs is sortedGroups' scratch outside the engine's buffer pool.
func heapPairs(n int) ([]int64, []float64) { return make([]int64, n), make([]float64, n) }

// sortPairs sorts the aligned key/value pairs by key ascending and
// returns the sorted vectors — the inputs or the equally long scratch pair
// tk/tv, whichever the last pass wrote — and then the other pair. It is a
// byte-wise radix sort, least significant byte first, over the key bytes
// that differ at all — group keys are small codes and surrogate keys, so
// two or three counting passes order tens of thousands of groups several
// times faster than a comparison sort — and carrying the values along
// spares the group merge a second probe of its table per group.
func sortPairs(ks []int64, vs []float64, tk []int64, tv []float64) ([]int64, []float64, []int64, []float64) {
	if len(ks) < 2 {
		return ks, vs, tk, tv
	}
	const sign = 1 << 63 // flipped, unsigned byte order is the signed order
	var differ uint64
	for _, k := range ks[1:] {
		differ |= uint64(k ^ ks[0])
	}
	for shift := 0; shift < 64; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var next [257]int // next[d]: where the next key with byte d goes
		for _, k := range ks {
			next[(uint64(k)^sign)>>shift&0xff+1]++
		}
		for d := 1; d < 256; d++ {
			next[d] += next[d-1]
		}
		for i, k := range ks {
			d := (uint64(k) ^ sign) >> shift & 0xff
			tk[next[d]], tv[next[d]] = k, vs[i]
			next[d]++
		}
		ks, tk = tk, ks
		vs, tv = tv, vs
	}
	return ks, vs, tk, tv
}

// lookupVisit binary-searches the sorted key vector for key, invoking
// visit for every probed position, and returns the insertion row, the
// probe count and whether the key is present. Shared by the OpLookup
// stage and the KeyLookup operator so both charge the same probe count.
func lookupVisit(keys []int64, key int64, visit func(mid int)) (row, probes int, ok bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if visit != nil {
			visit(mid)
		}
		probes++
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, probes, lo < len(keys) && keys[lo] == key
}

// KeyLookup is the point-read operator (algebra.find): it binary-searches a
// sorted key column for each probe key and gathers the aligned value
// column at hits (misses produce nothing). One input unit is one probe
// key; each costs (probes+1) * cyclesProbe — the bisection steps plus
// the final fetch — the same formula the OpLookup stage charges.
type KeyLookup struct {
	key, val *BAT
	probes   []int64

	// Found counts probe keys that hit.
	Found int

	cursor int
	m      meter
}

// NewLookup builds the operator probing the sorted key column for each
// key in probes.
func NewLookup(key, val *BAT, probes []int64) *KeyLookup {
	return &KeyLookup{key: key, val: val, probes: probes}
}

// Op implements Operator.
func (l *KeyLookup) Op() string { return "algebra.find" }

// Charged implements Operator.
func (l *KeyLookup) Charged() uint64 { return l.m.cycles }

// Next implements Operator: resolves up to n probe keys.
func (l *KeyLookup) Next(n int) *BAT {
	if l.cursor >= len(l.probes) {
		return nil
	}
	n = span(l.cursor, n, len(l.probes))
	var outI []int64
	var outF []float64
	for _, key := range l.probes[l.cursor : l.cursor+n] {
		row, probes, ok := lookupVisit(l.key.I, key, nil)
		l.m.add(probes+1, cyclesProbe)
		if !ok {
			continue
		}
		l.Found++
		if l.val.Kind == KindI64 {
			outI = append(outI, l.val.I[row])
		} else {
			outF = append(outF, l.val.F[row])
		}
	}
	l.cursor += n
	if l.val.Kind == KindI64 {
		return NewI64(l.val.Name+".find", outI)
	}
	return NewF64(l.val.Name+".find", outF)
}

// FusedQ6 is the raw kernel's fused Q6 scan as a vectorized operator: one
// pass over aligned shipdate/quantity/discount/price slices accumulating
// revenue, emitted as a one-row batch at exhaustion. One input unit is
// one base row.
type FusedQ6 struct {
	shipdate, quantity *BAT
	discount, price    *BAT
	partial            float64
	lo, hi             int

	cursor  int
	emitted bool
	m       meter

	raw *RawQ6 // engine drive: the kernel run the partial revenue joins
}

// NewFusedQ6 builds the operator over rows [lo, hi) of the four aligned
// columns.
func NewFusedQ6(shipdate, quantity, discount, price *BAT, lo, hi int) *FusedQ6 {
	return &FusedQ6{
		shipdate: shipdate, quantity: quantity, discount: discount, price: price,
		lo: lo, hi: hi, cursor: lo,
	}
}

func (fq *FusedQ6) runRange(a, b int) {
	sd, qty := fq.shipdate.I, fq.quantity.F
	dis, pr := fq.discount.F, fq.price.F
	for i := a; i < b; i++ {
		if sd[i] >= 19970101 && sd[i] < 19980101 &&
			dis[i] >= 0.06 && dis[i] <= 0.08 && qty[i] < 24 {
			fq.partial += pr[i] * dis[i]
		}
	}
}

// complete implements kernel: the thread's revenue joins the run's.
func (fq *FusedQ6) complete() (*BAT, *BAT) {
	fq.raw.Revenue += fq.partial
	fq.raw.remaining--
	return nil, nil
}

// Revenue returns the accumulated revenue so far.
func (fq *FusedQ6) Revenue() float64 { return fq.partial }

// Op implements Operator.
func (fq *FusedQ6) Op() string { return "raw.q6" }

// Charged implements Operator.
func (fq *FusedQ6) Charged() uint64 { return fq.m.cycles }

// Next implements Operator: scans up to n rows; revenue arrives as a
// one-row batch after the last row.
func (fq *FusedQ6) Next(n int) *BAT {
	if fq.cursor < fq.hi {
		n = span(fq.cursor, n, fq.hi)
		fq.runRange(fq.cursor, fq.cursor+n)
		fq.cursor += n
		fq.m.add(n, cyclesScan)
		if fq.cursor < fq.hi {
			return NewF64("raw.q6", nil)
		}
	}
	if fq.emitted {
		return nil
	}
	fq.emitted = true
	return NewF64("raw.q6", []float64{fq.partial})
}

// Compile-time interface checks: every vectorized operator satisfies the
// pluggable contract.
var (
	_ Operator = (*FilterScan)(nil)
	_ Operator = (*FilterRefine)(nil)
	_ Operator = (*Gather)(nil)
	_ Operator = (*MapBinary)(nil)
	_ Operator = (*SumAgg)(nil)
	_ Operator = (*HashBuild)(nil)
	_ Operator = (*HashProbe)(nil)
	_ Operator = (*GroupAgg)(nil)
	_ Operator = (*KeyLookup)(nil)
	_ Operator = (*FusedQ6)(nil)
)
