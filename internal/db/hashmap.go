package db

import "elasticore/internal/hashmix"

// hashmap.go provides the open-addressing hash tables behind the
// operator hot path: hash-join build/probe sides (i64Map) and grouped-
// aggregation partials (i64fMap). They replace Go maps on the per-tuple
// path for three reasons: linear probing over flat arrays is materially
// faster for int64 keys, Reset keeps capacity so the query pool can
// recycle them allocation-free, and slot iteration is deterministic —
// though no operator depends on iteration order for its results (merged
// group keys are sorted, probe results follow candidate order).

// hash64 spreads int64 keys over the tables.
func hash64(x uint64) uint64 { return hashmix.Mix64(x) }

const minMapSlots = 16

// slotsFor returns the smallest table size (a power of two) that holds n
// keys within the 3/4 load limit Put and Add grow at.
func slotsFor(n int) int {
	size := minMapSlots
	for 4*n > 3*size {
		size *= 2
	}
	return size
}

// i64Map is an int64→int64 linear-probe table (hash-join payloads).
type i64Map struct {
	ctrl []uint8 // 0 empty, 1 occupied; len is a power of two
	keys []int64
	vals []int64
	n    int
}

// Len returns the number of stored keys.
func (m *i64Map) Len() int {
	return m.n
}

// Reset empties the table, keeping its capacity for reuse.
func (m *i64Map) Reset() {
	clear(m.ctrl)
	m.n = 0
}

// Put stores v under k, overwriting any previous value.
func (m *i64Map) Put(k, v int64) {
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

// Get returns the value stored under k.
func (m *i64Map) Get(k int64) (int64, bool) {
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

// Range calls f for every entry, in slot order. No caller's results
// depend on the order.
func (m *i64Map) Range(f func(k, v int64)) {
	for i, c := range m.ctrl {
		if c == 1 {
			f(m.keys[i], m.vals[i])
		}
	}
}

// reserve makes room for n keys, so that n inserts from here rehash
// nothing: an empty table allocates its arrays once at the final size.
func (m *i64Map) reserve(n int) {
	if size := slotsFor(n); size > len(m.ctrl) {
		m.resize(size)
	}
}

// resize moves the entries into fresh arrays of size slots (a power of
// two above the load limit).
func (m *i64Map) resize(size int) {
	oc, ok, ov := m.ctrl, m.keys, m.vals
	m.ctrl = make([]uint8, size)
	m.keys = make([]int64, size)
	m.vals = make([]int64, size)
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

// i64fMap is an int64→float64 linear-probe table (aggregation partials).
type i64fMap struct {
	ctrl []uint8
	keys []int64
	vals []float64
	n    int
}

// Len returns the number of stored keys.
func (m *i64fMap) Len() int {
	return m.n
}

// Reset empties the table, keeping its capacity for reuse.
func (m *i64fMap) Reset() {
	clear(m.ctrl)
	m.n = 0
}

// Add accumulates delta into the sum stored under k.
func (m *i64fMap) Add(k int64, delta float64) {
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

// Get returns the sum stored under k.
func (m *i64fMap) Get(k int64) (float64, bool) {
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

// Range calls f for every entry, in slot order. No caller's results
// depend on the order.
func (m *i64fMap) Range(f func(k int64, v float64)) {
	for i, c := range m.ctrl {
		if c == 1 {
			f(m.keys[i], m.vals[i])
		}
	}
}

// reserve makes room for n keys (see i64Map.reserve).
func (m *i64fMap) reserve(n int) {
	if size := slotsFor(n); size > len(m.ctrl) {
		m.resize(size)
	}
}

func (m *i64fMap) resize(size int) {
	oc, ok, ov := m.ctrl, m.keys, m.vals
	m.ctrl = make([]uint8, size)
	m.keys = make([]int64, size)
	m.vals = make([]float64, size)
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
