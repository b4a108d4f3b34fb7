package db

import "math/bits"

// pool.go recycles the heap storage of query execution: candidate lists
// and value buffers (the tails of intermediate BATs), aggregation partial
// maps, hash-join build tables and dispatch envelopes. A query draws what
// it needs from its engine's pool while planning and executing, and each
// binding — a variable, a set, a group's partials — owns the storage
// behind it. Storage goes back to the pool when its binding dies, which
// the plan says (PlanSpec.Lower, lifetimes): an intermediate dies when the
// stage of its last reader drains, mid-query, so the next stage — of this
// query or of any other on the engine — can draw it again. A binding that
// no later step reads is a result; it lives until Engine.Release. Scratch
// storage a stage uses only while it runs (the group merge's table and sort
// pair) goes back at once. A selection's or probe's survivors are drawn
// once, at the exact size class, when its job is joined (beside.go). A view
// owns nothing: a projection its readers read through strips borrows its
// tail (BAT.view) — the base rows a dense candidate list covers, or a
// sparse list's ids, which makes the list live until the last read of a
// view over it (lifetimes) — a replayed selection borrows a list the
// engine's recycler keeps (recycle.go), and free drops that slice without
// filing it, so no later stage can write into the store, a kept list or a
// list a view still reads, and a list goes back once, as itself.
//
// The query's own bookkeeping is recycled whole: Release detaches the
// released query's body (its name maps, the arenas its BAT headers,
// fragment lists and PartSets come from, its stage slabs and task buffers)
// and files it on the engine's spare list, and the next Submit takes it
// from there. Each engine keeps its own list, like its pool.
//
// Only Go-heap storage is recycled. Simulated memory regions are NOT: a
// dead intermediate's BAT header keeps its region, only its host slice is
// dropped, and a reused buffer or header still gets a fresh region when it
// is materialized again, keeping the simulated address-space layout,
// first-touch placement and residency accounting identical to an engine
// that never recycles.

// poolClasses is the number of power-of-two size classes tracked for
// slice buffers (class = bits.Len(capacity)).
const poolClasses = 32

// poolClassCap bounds how many buffers one size class retains; beyond it,
// returned buffers are left to the garbage collector.
const poolClassCap = 4096

// bufPool is an engine's recycling store. It is single-threaded, like the
// simulation that owns the engine.
type bufPool struct {
	i64  [poolClasses][][]int64
	f64  [poolClasses][][]float64
	mif  []*i64fMap
	mii  []*i64Map
	disp []*dispatched
	// lent counts the buffers and tables handed out and not yet returned:
	// zero whenever every query drawn from the engine has been released.
	lent int
}

// class files a buffer under the power-of-two bucket of its capacity:
// bucket c holds caps in [2^(c-1), 2^c).
func class(capacity int) int {
	c := bits.Len(uint(capacity))
	if c >= poolClasses {
		c = poolClasses - 1
	}
	return c
}

// A lookup rounds the request up to a power of two, 2^(c-1), so every
// buffer filed under its bucket c, which holds capacities [2^(c-1), 2^c),
// fits it. It hands out the top of the first non-empty bucket among the
// request's own and the two above it: the most recently returned buffer,
// likeliest still warm in the host's caches. A buffer at most eight times
// the request's size serves it; a larger one is kept for a request it fits.
const poolReach = 3

// take returns a zero-length buffer with at least the given capacity from
// the buckets, making one of the rounded size when none is filed (or the
// request is beyond the top bucket's range); lent counts it as handed out.
func take[T any](buckets *[poolClasses][][]T, capacity int, lent *int) []T {
	if capacity <= 0 {
		return []T{}
	}
	*lent++
	own := bits.Len(uint(capacity-1)) + 1 // the bucket of the rounded size
	for c := own; c < min(own+poolReach, poolClasses); c++ {
		if stack := buckets[c]; len(stack) > 0 {
			top := len(stack) - 1
			buf := stack[top]
			stack[top] = nil
			buckets[c] = stack[:top]
			return buf[:0]
		}
	}
	return make([]T, 0, 1<<(own-1))
}

// give files a buffer back under the bucket of its capacity (beyond
// poolClassCap it is left to the garbage collector); lent counts it as
// returned. A zero-capacity buffer is none.
func give[T any](buckets *[poolClasses][][]T, buf []T, lent *int) {
	if cap(buf) == 0 {
		return
	}
	*lent--
	if c := class(cap(buf)); len(buckets[c]) < poolClassCap {
		buckets[c] = append(buckets[c], buf[:0])
	}
}

func (p *bufPool) getI64(capacity int) []int64   { return take(&p.i64, capacity, &p.lent) }
func (p *bufPool) putI64(buf []int64)            { give(&p.i64, buf, &p.lent) }
func (p *bufPool) getF64(capacity int) []float64 { return take(&p.f64, capacity, &p.lent) }
func (p *bufPool) putF64(buf []float64)          { give(&p.f64, buf, &p.lent) }

func (p *bufPool) getMapIF() *i64fMap {
	if n := len(p.mif); n > 0 {
		m := p.mif[n-1]
		p.mif[n-1] = nil
		p.mif = p.mif[:n-1]
		p.lent++
		return m
	}
	p.lent++
	return &i64fMap{}
}

func (p *bufPool) putMapIF(m *i64fMap) {
	if m == nil {
		return
	}
	p.lent--
	if len(p.mif) >= poolClassCap {
		return
	}
	m.Reset()
	p.mif = append(p.mif, m)
}

func (p *bufPool) getMapII() *i64Map {
	if n := len(p.mii); n > 0 {
		m := p.mii[n-1]
		p.mii[n-1] = nil
		p.mii = p.mii[:n-1]
		p.lent++
		return m
	}
	p.lent++
	return &i64Map{}
}

func (p *bufPool) putMapII(m *i64Map) {
	if m == nil {
		return
	}
	p.lent--
	if len(p.mii) >= poolClassCap {
		return
	}
	m.Reset()
	p.mii = append(p.mii, m)
}

func (p *bufPool) getDispatched() *dispatched {
	if n := len(p.disp); n > 0 {
		d := p.disp[n-1]
		p.disp[n-1] = nil
		p.disp = p.disp[:n-1]
		return d
	}
	return &dispatched{}
}

func (p *bufPool) putDispatched(d *dispatched) {
	*d = dispatched{}
	if len(p.disp) < poolClassCap {
		p.disp = append(p.disp, d)
	}
}

// arenaChunk is the smallest chunk an arena allocates, in elements.
const arenaChunk = 64

// arena hands out runs of Ts that stay where they are until the arena is
// rewound: the memory of a query's bindings, which later stages point
// into. Its chunks outlive a rewind, so a recycled body serves the next
// query from the memory the last one grew.
type arena[T any] struct {
	chunks [][]T
	cur    int // the chunk being filled
	used   int // elements of chunks[cur] handed out
}

// take returns n zeroed elements, contiguous and capped at n.
func (a *arena[T]) take(n int) []T {
	for ; a.cur < len(a.chunks); a.cur, a.used = a.cur+1, 0 {
		if c := a.chunks[a.cur]; a.used+n <= len(c) {
			a.used += n
			return c[a.used-n : a.used : a.used]
		}
	}
	c := make([]T, max(n, arenaChunk))
	a.chunks = append(a.chunks, c)
	a.used = n
	return c[:n:n]
}

// one returns a single zeroed element.
func (a *arena[T]) one() *T { return &a.take(1)[0] }

// rewind zeroes what was handed out, dropping the references it held, and
// makes it available again.
func (a *arena[T]) rewind() {
	for _, c := range a.chunks[:min(a.cur+1, len(a.chunks))] {
		clear(c)
	}
	a.cur, a.used = 0, 0
}

// takeSlab returns n zeroed slots of a body's slab for one chunked kind,
// growing it when it is short.
func takeSlab[O any](s *[]slot[O], n int) []slot[O] {
	if cap(*s) < n {
		*s = make([]slot[O], n)
	} else {
		*s = (*s)[:n]
		clear(*s)
	}
	return *s
}

// body returns a spare query body, or a new one when none is filed.
func (e *Engine) body() *queryBody {
	if n := len(e.spare); n > 0 {
		b := e.spare[n-1]
		e.spare[n-1] = nil
		e.spare = e.spare[:n-1]
		return b
	}
	return &queryBody{
		eng:      e,
		vars:     make(map[string]*PartSet),
		sets:     make(map[string]*i64Map),
		scalars:  make(map[string]float64),
		partials: make(map[string][]*i64fMap),
	}
}

// recycle detaches a released query's body, empties it and files it for a
// later Submit. The query's storage is back in the pool by then, its task
// queue is empty and its dying set buried.
func (e *Engine) recycle(q *Query) {
	b := q.queryBody
	q.queryBody = nil
	clear(b.vars)
	clear(b.sets)
	clear(b.scalars)
	clear(b.partials)
	b.stage, b.pending = 0, 0
	b.bats.rewind()
	b.frags.rewind()
	b.psets.rewind()
	b.partLists.rewind()
	b.fn = funcTask{}
	e.spare = append(e.spare, b)
}

// scratchI64 draws a zero-length int64 buffer with at least the given
// capacity from the engine pool. The binding whose tail it becomes owns it;
// storage a stage only borrows goes back before the stage ends.
func (q *Query) scratchI64(capacity int) []int64 {
	return q.eng.pool.getI64(max(capacity, 0))
}

// scratchF64 is scratchI64 for float64 buffers.
func (q *Query) scratchF64(capacity int) []float64 {
	return q.eng.pool.getF64(max(capacity, 0))
}

// held is one binding captured for release: the value its name had in its
// space when the step that reads it last was planned (that step may rebind
// the name, as GroupFilter and TopN do).
type held struct {
	name  string
	vals  *PartSet
	set   *i64Map
	parts []*i64fMap
}

// hold captures the value b names now; nothing when the name is unbound.
func (q *Query) hold(b binding) held {
	h := held{name: b.name}
	switch b.space {
	case spaceVar:
		h.vals = q.vars[b.name]
	case spaceSet:
		h.set = q.sets[b.name]
	case spacePartials:
		h.parts = q.partials[b.name]
	}
	return h
}

// doom captures the values that die with step i, before the step is
// lowered: those its refs name, and the candidate lists under the views it
// is the last to read.
func (q *Query) doom(i int) {
	if i >= len(q.Plan.dies) {
		return
	}
	op, mask := &q.Plan.Ops[i], q.Plan.dies[i]
	for k, r := range op.refs() {
		if mask>>k&1 != 0 {
			b, _ := op.binding(r)
			q.dying[q.ndying] = q.hold(b)
			q.ndying++
		}
		if k < 2 && mask>>(underShift+k)&1 != 0 {
			b, _ := op.binding(r)
			q.dying[q.ndying] = q.holdList(q.vars[b.name].cand)
			q.ndying++
		}
	}
}

// holdList captures the candidate list under a view, under the name that
// still binds it, if one does.
func (q *Query) holdList(ps *PartSet) held {
	h := held{vals: ps}
	for name, v := range q.vars {
		if v == ps {
			h.name = name
			break
		}
	}
	return h
}

// bury returns the storage of the captured bindings to the pool: the stage
// that read them last has drained.
func (q *Query) bury(p *bufPool) {
	for i := range q.dying[:q.ndying] {
		q.free(p, q.dying[i])
		q.dying[i] = held{}
	}
	q.ndying = 0
}

// free returns a binding's storage to the pool and unbinds its name if the
// name still holds it. Each BAT's host slice is dropped as it goes back (a
// view's without going back) and each partial table is cleared from its
// slot, so storage can reach the pool only once; the BAT headers keep their
// simulated regions.
func (q *Query) free(p *bufPool, h held) {
	if ps := h.vals; ps != nil {
		for _, b := range ps.Parts {
			if b == nil {
				continue
			}
			if !b.view {
				p.putI64(b.I)
				p.putF64(b.F)
			}
			b.I, b.F, b.view, b.sparse = nil, nil, false, false
		}
		if q.vars[h.name] == ps {
			delete(q.vars, h.name)
		}
	}
	if h.set != nil {
		if q.sets[h.name] == h.set {
			delete(q.sets, h.name)
		}
		p.putMapII(h.set)
	}
	if parts := h.parts; len(parts) > 0 {
		if cur := q.partials[h.name]; len(cur) > 0 && &cur[0] == &parts[0] {
			delete(q.partials, h.name)
		}
		for i, m := range parts {
			p.putMapIF(m)
			parts[i] = nil
		}
	}
}

// freeResults returns what a finished query still holds — its results — to
// the pool, in step order.
func (q *Query) freeResults(p *bufPool) {
	q.bury(p)
	for i, mask := range q.Plan.dies {
		if mask&resultBits == 0 {
			continue
		}
		op := &q.Plan.Ops[i]
		for k, r := range op.refs() {
			if k >= 2 && mask>>(k+2)&1 != 0 {
				b, _ := op.binding(r)
				q.free(p, q.hold(b))
			}
		}
	}
}
