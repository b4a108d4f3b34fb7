package numa

import "elasticore/internal/hashmix"

// cache.go models the cache hierarchy at block granularity: a small
// per-core private cache standing in for L1+L2, and a per-node shared L3
// implemented as an LRU over placement blocks. The model captures the
// effects the paper measures — capacity/conflict misses when many private
// working sets share one node's L3, coherence invalidations when writers
// touch blocks cached remotely, and the hit-rate benefit of co-locating
// threads that share data.

// noEntry marks an empty link in the LRU arena.
const noEntry int32 = -1

// mix64 spreads BlockIDs over the residency table.
func mix64(x uint64) uint64 { return hashmix.Mix64(x) }

// blockTable maps BlockID → arena index with fixed-size open addressing
// (linear probing, backward-shift deletion). An lruCache holds at most
// capacity+1 entries, so the table is sized once at ≤50% load and never
// grows; every operation is a short flat-array probe, far cheaper than a
// Go map on the access hot path.
type blockTable struct {
	keys []BlockID
	vals []int32
	used []bool
	mask uint64
	n    int
}

func newBlockTable(capacity int) *blockTable {
	size := 4
	for size < 2*(capacity+1) {
		size *= 2
	}
	return &blockTable{
		keys: make([]BlockID, size),
		vals: make([]int32, size),
		used: make([]bool, size),
		mask: uint64(size - 1),
	}
}

func (t *blockTable) get(b BlockID) (int32, bool) {
	i := mix64(uint64(b)) & t.mask
	for t.used[i] {
		if t.keys[i] == b {
			return t.vals[i], true
		}
		i = (i + 1) & t.mask
	}
	return 0, false
}

// put inserts a key that is not present.
func (t *blockTable) put(b BlockID, v int32) {
	i := mix64(uint64(b)) & t.mask
	for t.used[i] {
		i = (i + 1) & t.mask
	}
	t.used[i] = true
	t.keys[i] = b
	t.vals[i] = v
	t.n++
}

// del removes the key if present, backward-shifting the probe chain so
// lookups stay correct without tombstones.
func (t *blockTable) del(b BlockID) bool {
	i := mix64(uint64(b)) & t.mask
	for {
		if !t.used[i] {
			return false
		}
		if t.keys[i] == b {
			break
		}
		i = (i + 1) & t.mask
	}
	j := i
	for {
		j = (j + 1) & t.mask
		if !t.used[j] {
			break
		}
		h := mix64(uint64(t.keys[j])) & t.mask
		// Move j back into the hole unless it sits in its own probe
		// window between the hole (exclusive) and j.
		if (j-h)&t.mask >= (j-i)&t.mask {
			t.keys[i] = t.keys[j]
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	t.used[i] = false
	t.n--
	return true
}

func (t *blockTable) clear() {
	clear(t.used)
	t.n = 0
}

// lruCache is a fixed-capacity LRU set of BlockIDs with O(1) lookup,
// insert and eviction. Entries live in a slice-backed arena linked by
// indices and recycled through a free list, indexed by a flat
// open-addressing table, so steady-state churn (every simulated memory
// access touches two caches) allocates nothing and hashes nothing heavier
// than one multiply-shift round.
type lruCache struct {
	capacity int
	idx      *blockTable
	ent      []lruEntry
	free     []int32
	head     int32 // most recently used
	tail     int32 // least recently used
}

type lruEntry struct {
	block      BlockID
	prev, next int32
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		capacity: capacity,
		idx:      newBlockTable(capacity),
		ent:      make([]lruEntry, 0, capacity+1),
		head:     noEntry,
		tail:     noEntry,
	}
}

// Contains reports whether the block is resident without promoting it.
func (c *lruCache) Contains(b BlockID) bool {
	_, ok := c.idx.get(b)
	return ok
}

// Touch promotes the block to most-recently-used, inserting it if absent.
// It returns whether the block was already resident and, when an insertion
// evicted an older block, that victim.
func (c *lruCache) Touch(b BlockID) (hit bool, evicted BlockID, didEvict bool) {
	if e, ok := c.idx.get(b); ok {
		c.moveToFront(e)
		return true, 0, false
	}
	e := c.alloc(b)
	c.idx.put(b, e)
	c.pushFront(e)
	if c.idx.n > c.capacity {
		victim := c.tail
		vb := c.ent[victim].block
		c.remove(victim)
		c.idx.del(vb)
		c.free = append(c.free, victim)
		return false, vb, true
	}
	return false, 0, false
}

// Invalidate drops the block if resident, returning whether it was.
func (c *lruCache) Invalidate(b BlockID) bool {
	e, ok := c.idx.get(b)
	if !ok {
		return false
	}
	c.remove(e)
	c.idx.del(b)
	c.free = append(c.free, e)
	return true
}

// Len returns the number of resident blocks.
func (c *lruCache) Len() int { return c.idx.n }

// Clear empties the cache (used when a thread migrates away and its
// working set is lost), keeping the arena and table storage.
func (c *lruCache) Clear() {
	c.idx.clear()
	c.free = c.free[:0]
	for i := range c.ent {
		c.free = append(c.free, int32(i))
	}
	c.head, c.tail = noEntry, noEntry
}

// alloc takes an entry from the free list, extending the arena when none
// is available.
func (c *lruCache) alloc(b BlockID) int32 {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free = c.free[:n-1]
		c.ent[e] = lruEntry{block: b, prev: noEntry, next: noEntry}
		return e
	}
	c.ent = append(c.ent, lruEntry{block: b, prev: noEntry, next: noEntry})
	return int32(len(c.ent) - 1)
}

func (c *lruCache) pushFront(e int32) {
	c.ent[e].prev = noEntry
	c.ent[e].next = c.head
	if c.head != noEntry {
		c.ent[c.head].prev = e
	}
	c.head = e
	if c.tail == noEntry {
		c.tail = e
	}
}

func (c *lruCache) remove(e int32) {
	prev, next := c.ent[e].prev, c.ent[e].next
	if prev != noEntry {
		c.ent[prev].next = next
	} else {
		c.head = next
	}
	if next != noEntry {
		c.ent[next].prev = prev
	} else {
		c.tail = prev
	}
	c.ent[e].prev, c.ent[e].next = noEntry, noEntry
}

func (c *lruCache) moveToFront(e int32) {
	if c.head == e {
		return
	}
	c.remove(e)
	c.pushFront(e)
}

// cacheHierarchy bundles the per-core private caches and per-node shared
// L3s of the whole machine.
type cacheHierarchy struct {
	topo    *Topology
	private []*lruCache // indexed by CoreID; stands in for L1+L2
	shared  []*lruCache // indexed by NodeID; the L3
}

func newCacheHierarchy(t *Topology) *cacheHierarchy {
	h := &cacheHierarchy{
		topo:    t,
		private: make([]*lruCache, t.TotalCores()),
		shared:  make([]*lruCache, t.NodeCount),
	}
	privCap := (t.L1Bytes + t.L2Bytes) / t.BlockBytes
	if privCap < 1 {
		privCap = 1
	}
	for c := range h.private {
		h.private[c] = newLRUCache(privCap)
	}
	for n := range h.shared {
		h.shared[n] = newLRUCache(t.L3Bytes / t.BlockBytes)
	}
	return h
}

// lookupLevel identifies where an access was satisfied.
type lookupLevel int

const (
	levelPrivate lookupLevel = iota // L1/L2 hit
	levelL3                         // shared-cache hit
	levelMemory                     // L3 miss, served from DRAM
)

// access walks the hierarchy for one block access on the given core,
// filling caches on the way, and returns the level that satisfied it.
func (h *cacheHierarchy) access(core CoreID, b BlockID) lookupLevel {
	node := h.topo.NodeOf(core)
	if hit, _, _ := h.private[core].Touch(b); hit {
		// Keep L3 inclusive of private caches so shared readers on the
		// same node observe the block as resident.
		h.shared[node].Touch(b)
		return levelPrivate
	}
	if hit, _, _ := h.shared[node].Touch(b); hit {
		return levelL3
	}
	return levelMemory
}

// invalidateRemote removes the block from every cache outside writerNode,
// returning how many node-level copies were invalidated. This is the
// coherence cost a write imposes when readers on other sockets hold the
// block (the paper's "cache invalidations between the threads").
func (h *cacheHierarchy) invalidateRemote(writerCore CoreID, b BlockID) int {
	writerNode := h.topo.NodeOf(writerCore)
	invalidated := 0
	for n := 0; n < h.topo.NodeCount; n++ {
		if NodeID(n) == writerNode {
			continue
		}
		if h.shared[n].Invalidate(b) {
			invalidated++
		}
		for j := 0; j < h.topo.CoresPerNode; j++ {
			h.private[h.topo.CoreOf(NodeID(n), j)].Invalidate(b)
		}
	}
	for j := 0; j < h.topo.CoresPerNode; j++ {
		if c := h.topo.CoreOf(writerNode, j); c != writerCore {
			h.private[c].Invalidate(b)
		}
	}
	return invalidated
}

// dropCore clears a core's private cache, modelling lost affinity after a
// thread migration replaced its working set.
func (h *cacheHierarchy) dropCore(core CoreID) { h.private[core].Clear() }

// l3Resident reports whether the block is in the node's L3 (for tests).
func (h *cacheHierarchy) l3Resident(n NodeID, b BlockID) bool {
	return h.shared[n].Contains(b)
}
