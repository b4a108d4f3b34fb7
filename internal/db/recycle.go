package db

import (
	"encoding/binary"
	"math"
)

// recycle.go keeps the candidate lists of selections an engine computes
// more than once, as MonetDB's Recycler keeps an intermediate whose
// instruction lineage repeats (Ivanova et al., SIGMOD 2009). Only the host
// computation is recycled, never the model: a replayed partition's task
// runs its chunk loop unchanged — every chargeRange and chargeGathered in
// the same budget increments, so preemption, debt and every numa counter
// are those of the computed run — and only the kernel is skipped.
//
// A selection's lineage is its key: the base column it tests, the form and
// bounds of its predicate and, for a refinement, the lineage of its input.
// The key fixes the result: a scan's partition ranges follow from the
// column's length and the engine's Fanout and MinPartRows, a refinement's
// from its input's, and the lists in them from the column's values, which
// nothing writes. Keys are compared whole, never by a hash, so two
// lineages cannot collide; an IN list is interned by its exact values.
//
// The first sighting of a key only records it. The second keeps the
// result: when that query's last partition of the stage completes, the
// lists are copied into one exact-size array — the query keeps and frees
// its pooled buffers as it would have — and later sightings replay them:
// the output headers become capped views of the kept lists (BAT.view), so
// no stage writes them and Query.free never files them in the pool. The
// table fills once and never evicts: an entry is kept only while the
// engine's kept bytes stay within an eighth of its store's base columns,
// and at most maxKeys keys are tracked; a selection past either is
// computed as if it were new. A full scan (PredAll) is a dense range with
// nothing to keep; its output has a lineage for its refinements.

// maxKeys bounds the keys a recycler tracks.
const maxKeys = 1 << 12

// selKey is a selection's lineage.
type selKey struct {
	col  *BAT   // the base column tested
	in   uint32 // the input's lineage; 0 for a scan of the whole column
	form predForm
	list uint32 // a predIIn's interned list, else 0
	iLo  int64
	iHi  int64
	fLo  uint64 // float bounds by their bits: equal keys are equal bit for bit
	fHi  uint64
}

// The states of an entry, in the order it moves through them; entryOff
// holds an entry that is never kept: a dense scan, or lists past the
// budget.
const (
	entryOnce    uint8 = iota // sighted once
	entryFilling              // a query's stage is computing the lists to keep
	entryHeld                 // the lists are kept: later sightings replay them
	entryOff
)

// selEntry is one tracked lineage.
type selEntry struct {
	id    uint32 // the lineage its selections' outputs carry
	state uint8
	rec   *recycler

	// Filling: the output the stage fills and its partitions still running.
	out  *PartSet
	left int

	// Held: the partitions' lists in one exact-size array, their np+1
	// offsets first, then the lists back to back.
	lists []int64
}

// recycler is an engine's table of selection lineages, built at its first
// selection. It is single-threaded, like the engine that owns it.
type recycler struct {
	keys    map[selKey]*selEntry
	entries arena[selEntry]
	lists   map[string]uint32 // interned IN lists, by their bytes
	scratch []byte

	budget, kept int // bytes: the most the lists may hold, what they hold

	// selections counts the selection stages planned, replays those that
	// replayed kept lists.
	selections, replays int
}

// newRecycler returns an empty table whose budget is an eighth of the
// store's base-column bytes.
func newRecycler(st *Store) *recycler {
	r := &recycler{keys: make(map[selKey]*selEntry), lists: make(map[string]uint32)}
	for _, tb := range st.tables {
		for _, c := range tb.cols {
			r.budget += c.Bytes()
		}
	}
	r.budget /= 8
	return r
}

// entry returns the entry of a key and whether this sighting tracked it;
// nil when the key is new and the table full.
func (r *recycler) entry(c *BAT, in uint32, p *Pred) (*selEntry, bool) {
	k := selKey{col: c, in: in, form: p.form, iLo: p.iLo, iHi: p.iHi,
		fLo: math.Float64bits(p.fLo), fHi: math.Float64bits(p.fHi)}
	if p.form == predIIn {
		r.scratch = r.scratch[:0]
		for _, v := range p.iList {
			r.scratch = binary.LittleEndian.AppendUint64(r.scratch, uint64(v))
		}
		id, ok := r.lists[string(r.scratch)]
		if !ok {
			if len(r.keys) >= maxKeys {
				return nil, false
			}
			id = uint32(len(r.lists) + 1)
			r.lists[string(r.scratch)] = id
		}
		k.list = id
	}
	if en := r.keys[k]; en != nil {
		return en, false
	}
	if len(r.keys) >= maxKeys {
		return nil, false
	}
	en := r.entries.one()
	en.id, en.rec = uint32(len(r.keys)+1), r
	if p.form == predAll {
		en.state = entryOff
	}
	r.keys[k] = en
	return en, true
}

// recall plans the recycling of a selection stage: column c tested under p
// over input in (nil for a scan of the whole column) into out. It stamps
// out with the selection's lineage and returns the entry whose lists the
// stage replays (held) or the entry that keeps the lists it computes
// (keep), at most one of the two; neither for an input of no lineage or a
// key past maxKeys.
func (q *Query) recall(c *BAT, in *PartSet, p *Pred, out *PartSet) (held, keep *selEntry) {
	e := q.eng
	if e.rec == nil {
		e.rec = newRecycler(e.store)
	}
	r := e.rec
	r.selections++
	var lin uint32
	if in != nil {
		if lin = in.lin; lin == 0 {
			return nil, nil
		}
	}
	en, first := r.entry(c, lin, p)
	if en == nil {
		return nil, nil
	}
	out.lin = en.id
	switch {
	case en.state == entryHeld:
		r.replays++
		return en, nil
	case en.state == entryOnce && !first && r.kept < r.budget:
		en.state, en.out = entryFilling, out
		return nil, en
	}
	return nil, nil
}

// expect arms a filling entry with the number of tasks its stage planned;
// a stage of none (every input partition empty) is complete at once.
func (en *selEntry) expect(tasks int) {
	if en.left = tasks; tasks == 0 {
		en.keep()
	}
}

// done counts a filling entry's partition complete, and keeps the lists
// after the last one.
func (en *selEntry) done() {
	if en.left--; en.left == 0 {
		en.keep()
	}
}

// keep copies the filled output's lists into one exact-size array when
// they fit the budget, and turns the entry off when they do not.
func (en *selEntry) keep() {
	r, parts := en.rec, en.out.Parts
	en.out = nil
	n := len(parts) + 1
	for _, b := range parts {
		n += len(b.I)
	}
	if r.kept+n*valueBytes > r.budget {
		en.state = entryOff
		return
	}
	lists := make([]int64, n)
	off := len(parts) + 1
	for i, b := range parts {
		lists[i] = int64(off)
		off += copy(lists[off:], b.I)
	}
	lists[len(parts)] = int64(off)
	en.lists, en.state = lists, entryHeld
	r.kept += n * valueBytes
}

// list returns the kept list of partition i, capped.
func (en *selEntry) list(i int) []int64 {
	lo, hi := en.lists[i], en.lists[i+1]
	return en.lists[lo:hi:hi]
}
