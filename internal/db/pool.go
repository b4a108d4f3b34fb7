package db

import "math/bits"

// pool.go recycles the per-query heap churn of steady-state operator
// execution: candidate lists and value buffers (the tails of intermediate
// BATs), aggregation partial maps, hash-join build tables and dispatch
// envelopes. A query draws buffers from its engine's pool while planning
// and executing, registers the final buffers it kept, and hands everything
// back when the finished query is drained — so a warmed-up engine runs
// repeated queries without allocating on the operator hot path.
//
// Only Go-heap storage is recycled. Simulated memory regions are NOT: a
// reused buffer still gets a fresh region at materialization time, keeping
// the simulated address-space layout, first-touch placement and residency
// accounting identical to the unpooled engine.

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
	// owned holds the emptied registries of released queries, so a warm
	// engine's queries do not each regrow theirs from nil.
	owned []ownedBuffers
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

// getI64 returns a zero-length buffer with at least the given capacity.
// The search starts in the request's own bucket, where a buffer allocated
// for an equal request was filed; only there (and in the clamped top
// bucket) can the newest buffer be too small, and then it stays put.
func (p *bufPool) getI64(capacity int) []int64 {
	for c := class(capacity); c < poolClasses; c++ {
		stack := p.i64[c]
		n := len(stack)
		if n == 0 || cap(stack[n-1]) < capacity {
			continue
		}
		buf := stack[n-1]
		stack[n-1] = nil
		p.i64[c] = stack[:n-1]
		return buf[:0]
	}
	return make([]int64, 0, capacity)
}

func (p *bufPool) putI64(buf []int64) {
	if cap(buf) == 0 {
		return
	}
	c := class(cap(buf))
	if len(p.i64[c]) < poolClassCap {
		p.i64[c] = append(p.i64[c], buf[:0])
	}
}

// getF64 is getI64 for float64 buffers.
func (p *bufPool) getF64(capacity int) []float64 {
	for c := class(capacity); c < poolClasses; c++ {
		stack := p.f64[c]
		n := len(stack)
		if n == 0 || cap(stack[n-1]) < capacity {
			continue
		}
		buf := stack[n-1]
		stack[n-1] = nil
		p.f64[c] = stack[:n-1]
		return buf[:0]
	}
	return make([]float64, 0, capacity)
}

func (p *bufPool) putF64(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	c := class(cap(buf))
	if len(p.f64[c]) < poolClassCap {
		p.f64[c] = append(p.f64[c], buf[:0])
	}
}

func (p *bufPool) getMapIF() *i64fMap {
	if n := len(p.mif); n > 0 {
		m := p.mif[n-1]
		p.mif[n-1] = nil
		p.mif = p.mif[:n-1]
		return m
	}
	return &i64fMap{}
}

func (p *bufPool) putMapIF(m *i64fMap) {
	if m == nil || len(p.mif) >= poolClassCap {
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
		return m
	}
	return &i64Map{}
}

func (p *bufPool) putMapII(m *i64Map) {
	if m == nil || len(p.mii) >= poolClassCap {
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

func (p *bufPool) getOwned() ownedBuffers {
	n := len(p.owned)
	if n == 0 {
		return ownedBuffers{}
	}
	o := p.owned[n-1]
	p.owned[n-1] = ownedBuffers{}
	p.owned = p.owned[:n-1]
	return o
}

// ownedBuffers is a query's registry of pooled storage to return at drain
// time. Each buffer must be registered exactly once — registering an alias
// twice would hand the same backing array to two future queries.
type ownedBuffers struct {
	i64 [][]int64
	f64 [][]float64
	mif []*i64fMap
	mii []*i64Map
}

// scratchI64 draws a zero-length int64 buffer with at least the given
// capacity from the engine pool. The caller must register the final
// (possibly append-grown) buffer with ownI64 once it stops growing.
func (q *Query) scratchI64(capacity int) []int64 {
	if capacity < 0 {
		capacity = 0
	}
	return q.eng.pool.getI64(capacity)
}

// scratchF64 is scratchI64 for float64 buffers.
func (q *Query) scratchF64(capacity int) []float64 {
	if capacity < 0 {
		capacity = 0
	}
	return q.eng.pool.getF64(capacity)
}

// ownI64 registers the final value of a scratch buffer for reclamation
// when the query is drained.
func (q *Query) ownI64(buf []int64) {
	if cap(buf) > 0 {
		q.owned.i64 = append(q.owned.i64, buf)
	}
}

// ownF64 registers the final value of a scratch buffer for reclamation
// when the query is drained.
func (q *Query) ownF64(buf []float64) {
	if cap(buf) > 0 {
		q.owned.f64 = append(q.owned.f64, buf)
	}
}

// scratchMapIF draws an empty int64→float64 table (aggregation partials)
// from the pool; it is registered for reclamation immediately since
// tables keep their identity as they grow.
func (q *Query) scratchMapIF() *i64fMap {
	m := q.eng.pool.getMapIF()
	q.owned.mif = append(q.owned.mif, m)
	return m
}

// scratchMapII draws an empty int64→int64 table (hash-join build sides)
// from the pool, registered like scratchMapIF.
func (q *Query) scratchMapII() *i64Map {
	m := q.eng.pool.getMapII()
	q.owned.mii = append(q.owned.mii, m)
	return m
}

// releaseTo returns every registered buffer to the pool. Called by
// Engine.Drain once the query's results have been consumed.
func (q *Query) releaseTo(p *bufPool) {
	for i, buf := range q.owned.i64 {
		p.putI64(buf)
		q.owned.i64[i] = nil
	}
	for i, buf := range q.owned.f64 {
		p.putF64(buf)
		q.owned.f64[i] = nil
	}
	for i, m := range q.owned.mif {
		p.putMapIF(m)
		q.owned.mif[i] = nil
	}
	for i, m := range q.owned.mii {
		p.putMapII(m)
		q.owned.mii[i] = nil
	}
	if o := &q.owned; len(p.owned) < poolClassCap {
		p.owned = append(p.owned, ownedBuffers{o.i64[:0], o.f64[:0], o.mif[:0], o.mii[:0]})
	}
	q.owned = ownedBuffers{}
}
