package db

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"slices"
	"unsafe"

	"elasticore/internal/hashmix"
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
