package db

import (
	"math/bits"

	"elasticore/internal/hashmix"
)

// hashmap.go provides the key tables behind the operator hot path:
// hash-join build/probe sides (i64Map) and grouped-aggregation partials
// and merges (i64fMap). One type serves both, in one of two forms chosen
// when the table is sized (tryPositional) from the bounds of the keys
// about to be inserted:
//
//   - positional: key k lives at slot k-base. A membership set is a
//     bitmap, a fetch-join or group table is that bitmap plus a value per
//     slot. Get/Put/Add are a subtract, a bounds test and one load — no
//     hash, no probe loop — and slot order is key order, which the group
//     merge relies on: it emits a positional table without sorting.
//   - hash: open addressing with linear probing over flat arrays, for
//     keys that do not fit the rule (sparse or huge spans) and for tables
//     nobody sized. A key outside the reserved range, or a payload a
//     membership bitmap cannot hold, converts the table to this form in
//     place and loses nothing.
//
// Both forms replace Go maps on the per-tuple path: they are materially
// faster for int64 keys, Reset keeps capacity so the query pool recycles
// them allocation-free, and iteration is deterministic. The arrays of the
// form not in use hold no entry, so Reset clears only the form in use.

// hash64 spreads int64 keys over the hash form.
func hash64(x uint64) uint64 { return hashmix.Mix64(x) }

const (
	minMapSlots = 16
	// hashSlotBytes is what one hash-form slot costs: control byte, key,
	// value.
	hashSlotBytes = 17
	// positionalFloor is the one constant of the form rule: a positional
	// table this small (an L1 data cache: a bitmap over 262 144 keys, or
	// sums over 4 032) is chosen even when the hash table for the same
	// keys would be smaller still. It is what keeps a selective semijoin
	// set — TPC-H Q17 builds 7 part keys out of a span of 8 000 and probes
	// them 240 000 times — a 1 KB bitmap instead of a 16-slot hash table
	// paying a hash and a probe loop per miss.
	positionalFloor = 32 << 10
)

// slotsFor returns the smallest hash-form size (a power of two) that
// holds n keys within the 3/4 load limit Put and Add grow at.
func slotsFor(n int) int {
	size := minMapSlots
	for 4*n > 3*size {
		size *= 2
	}
	return size
}

// keyTable maps int64 keys to values of one 8-byte kind.
type keyTable[V int64 | float64] struct {
	// Hash form: ctrl is 0 empty, 1 occupied; its len is a power of two.
	ctrl []uint8
	keys []int64
	vals []V

	n int // stored keys, in either form

	// Positional form, in use while span > 0: slot i is key base+i.
	base   int64
	span   uint64
	member bool     // membership set: every value is 1 and byPos is unused
	bits   []uint64 // presence, one bit per slot
	byPos  []V
}

type (
	// i64Map is the int64→int64 table (hash-join build sides).
	i64Map = keyTable[int64]
	// i64fMap is the int64→float64 table (aggregation partials and merges).
	i64fMap = keyTable[float64]
)

// Len returns the number of stored keys.
func (m *keyTable[V]) Len() int {
	return m.n
}

// Reset empties the table, keeping the capacity of both forms for reuse
// and leaving it in hash form until it is sized again.
func (m *keyTable[V]) Reset() {
	switch {
	case m.n == 0: // nothing stored, nothing to clear
	case m.span > 0:
		clear(m.bits[:m.words()])
	default:
		clear(m.ctrl)
	}
	m.span, m.n = 0, 0
}

// words is the length of the presence bitmap in use.
func (m *keyTable[V]) words() int { return int((m.span + 63) / 64) }

// tryPositional puts an empty table into positional form if n inserts of
// keys within [lo, hi] are served by it in no more bytes than the hash
// form reserved for n keys would take (or than positionalFloor), and
// reports whether it did. member sizes a membership set: a bitmap alone.
// A table left in hash form is not touched.
func (m *keyTable[V]) tryPositional(lo, hi int64, n int, member bool) bool {
	if m.n > 0 {
		return false
	}
	m.span = 0
	if lo > hi {
		return false
	}
	limit := uint64(max(positionalFloor, slotsFor(n)*hashSlotBytes))
	span := uint64(hi) - uint64(lo) // one short of the slot count, so every-int64 does not wrap to 0
	if span >= 8*limit {
		return false
	}
	span++
	words := (span + 63) / 64
	size := 8 * words
	if !member {
		size += 8 * span
	}
	if size > limit {
		return false
	}
	m.base, m.span, m.member = lo, span, member
	if uint64(len(m.bits)) < words {
		m.bits = make([]uint64, words)
	}
	if !member && uint64(len(m.byPos)) < span {
		m.byPos = make([]V, span)
	}
	return true
}

// toHash moves a positional table's entries into the hash form: the way
// out for a key or payload the positional form cannot hold.
func (m *keyTable[V]) toHash() {
	old := *m
	m.span, m.n = 0, 0
	m.reserve(old.n + 1)
	old.Range(m.putHash)
	clear(old.bits[:old.words()])
}

// Put stores v under k, overwriting any previous value.
func (m *keyTable[V]) Put(k int64, v V) {
	if m.span > 0 {
		if i := uint64(k) - uint64(m.base); i < m.span && (!m.member || v == 1) {
			w, bit := i>>6, uint64(1)<<(i&63)
			if m.bits[w]&bit == 0 {
				m.bits[w] |= bit
				m.n++
			}
			if !m.member {
				m.byPos[i] = v
			}
			return
		}
		m.toHash()
	}
	m.putHash(k, v)
}

func (m *keyTable[V]) putHash(k int64, v V) {
	if 4*(m.n+1) > 3*len(m.ctrl) {
		m.resize(max(minMapSlots, 2*len(m.ctrl)))
	}
	mask := uint64(len(m.ctrl) - 1)
	i := hash64(uint64(k)) & mask
	for m.ctrl[i] == 1 {
		if m.keys[i] == k {
			m.vals[i] = v
			return
		}
		i = (i + 1) & mask
	}
	m.ctrl[i] = 1
	m.keys[i] = k
	m.vals[i] = v
	m.n++
}

// Add accumulates delta into the sum stored under k; the first delta of a
// key is stored as it is, so a key's sum is the left-to-right sum of its
// deltas in either form.
func (m *keyTable[V]) Add(k int64, delta V) {
	if m.span > 0 {
		if i := uint64(k) - uint64(m.base); i < m.span && !m.member {
			if w, bit := i>>6, uint64(1)<<(i&63); m.bits[w]&bit == 0 {
				m.bits[w] |= bit
				m.byPos[i] = delta
				m.n++
			} else {
				m.byPos[i] += delta
			}
			return
		}
		m.toHash()
	}
	m.addHash(k, delta)
}

func (m *keyTable[V]) addHash(k int64, delta V) {
	if 4*(m.n+1) > 3*len(m.ctrl) {
		m.resize(max(minMapSlots, 2*len(m.ctrl)))
	}
	mask := uint64(len(m.ctrl) - 1)
	i := hash64(uint64(k)) & mask
	for m.ctrl[i] == 1 {
		if m.keys[i] == k {
			m.vals[i] += delta
			return
		}
		i = (i + 1) & mask
	}
	m.ctrl[i] = 1
	m.keys[i] = k
	m.vals[i] = delta
	m.n++
}

// addAll is Add over aligned vectors (1 per key when vals is nil) with
// the form test hoisted out of the per-row loop.
func (m *keyTable[V]) addAll(keys []int64, vals []V) {
	j, delta := 0, V(1)
	if m.span > 0 && !m.member {
		base, span, present, byPos, n := uint64(m.base), m.span, m.bits, m.byPos, m.n
		for ; j < len(keys); j++ {
			i := uint64(keys[j]) - base
			if i >= span {
				break
			}
			if vals != nil {
				delta = vals[j]
			}
			if w, bit := i>>6, uint64(1)<<(i&63); present[w]&bit == 0 {
				present[w] |= bit
				byPos[i] = delta
				n++
			} else {
				byPos[i] += delta
			}
		}
		m.n = n
	}
	if j < len(keys) && m.span > 0 {
		m.toHash() // keys[j] lies outside the reserved range
	}
	for ; j < len(keys); j++ {
		if vals != nil {
			delta = vals[j]
		}
		m.addHash(keys[j], delta)
	}
}

// Get returns the value stored under k.
func (m *keyTable[V]) Get(k int64) (V, bool) {
	if m.span > 0 {
		i := uint64(k) - uint64(m.base)
		if i >= m.span || m.bits[i>>6]>>(i&63)&1 == 0 {
			return 0, false
		}
		if m.member {
			return 1, true
		}
		return m.byPos[i], true
	}
	if m.n == 0 {
		return 0, false
	}
	mask := uint64(len(m.ctrl) - 1)
	i := hash64(uint64(k)) & mask
	for m.ctrl[i] == 1 {
		if m.keys[i] == k {
			return m.vals[i], true
		}
		i = (i + 1) & mask
	}
	return 0, false
}

// Range calls f for every entry, in slot order. In positional form that
// is ascending key order, and sortedGroups depends on it; the order of
// the hash form means nothing.
func (m *keyTable[V]) Range(f func(k int64, v V)) {
	if m.span > 0 {
		for w, word := range m.bits[:m.words()] {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				v := V(1)
				if !m.member {
					v = m.byPos[i]
				}
				f(m.base+int64(i), v)
			}
		}
		return
	}
	for i, c := range m.ctrl {
		if c == 1 {
			f(m.keys[i], m.vals[i])
		}
	}
}

// widen extends [lo, hi] to cover the table's keys: the reserved range of
// a positional table (it was sized from its keys' own bounds), a scan of
// the slots of a hash table.
func (m *keyTable[V]) widen(lo, hi int64) (int64, int64) {
	switch {
	case m.n == 0: // no keys
	case m.span > 0:
		lo, hi = min(lo, m.base), max(hi, m.base+int64(m.span-1))
	default:
		for i, c := range m.ctrl {
			if c == 1 {
				lo, hi = min(lo, m.keys[i]), max(hi, m.keys[i])
			}
		}
	}
	return lo, hi
}

// reserve makes room in the hash form for n keys, so that n inserts from
// here rehash nothing: an empty table allocates its arrays once at the
// final size.
func (m *keyTable[V]) reserve(n int) {
	if size := slotsFor(n); size > len(m.ctrl) {
		m.resize(size)
	}
}

// resize moves the hash-form entries into fresh arrays of size slots (a
// power of two above the load limit).
func (m *keyTable[V]) resize(size int) {
	oc, ok, ov := m.ctrl, m.keys, m.vals
	m.ctrl = make([]uint8, size)
	m.keys = make([]int64, size)
	m.vals = make([]V, size)
	if m.n == 0 {
		return
	}
	mask := uint64(size - 1)
	for i, c := range oc {
		if c != 1 {
			continue
		}
		j := hash64(uint64(ok[i])) & mask
		for m.ctrl[j] == 1 {
			j = (j + 1) & mask
		}
		m.ctrl[j] = 1
		m.keys[j] = ok[i]
		m.vals[j] = ov[i]
	}
}
