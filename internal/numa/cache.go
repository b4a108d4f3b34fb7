package numa

import "slices"

// cache.go models the cache hierarchy at block granularity: a small
// per-core private cache standing in for L1+L2, and a per-node shared L3
// implemented as an LRU over placement blocks. The model captures the
// effects the paper measures — capacity/conflict misses when many private
// working sets share one node's L3, coherence invalidations when writers
// touch blocks cached remotely, and the hit-rate benefit of co-locating
// threads that share data.

// noEntry marks an empty link in the LRU arena.
const noEntry int32 = -1

// directory is the residency index of every cache of one machine. A
// BlockID is a position in Memory.blocks, so residency is looked up by
// position and nothing is hashed: a block that is resident somewhere keeps,
// in its blockInfo, the slot of a row with one cell per cache (cores first,
// then the L3s) and a last cell counting the non-zero ones. A cell holds
// the block's LRU-arena index + 1 in that cache, 0 when the block is not
// resident there, so a row is also the block's sharer set. Rows exist only
// for resident blocks — at most the summed capacity of the caches, however
// many blocks were ever allocated — and are recycled when the last cache
// drops the block.
type directory struct {
	mem  *Memory
	cols int      // caches; a row is cols + 1 cells
	rows []uint16 // row of slot s at [(s-1)*(cols+1), s*(cols+1))
	free []uint32 // slots of recycled, all-zero rows
}

func newDirectory(mem *Memory, caches int) *directory {
	return &directory{mem: mem, cols: caches}
}

// row returns the block's cells, or nil when no cache holds the block.
func (d *directory) row(b BlockID) []uint16 {
	s := int(d.mem.blocks[b].slot)
	if s == 0 {
		return nil
	}
	w := d.cols + 1
	return d.rows[(s-1)*w : s*w]
}

// get returns the block's cell in column col.
func (d *directory) get(b BlockID, col int) uint16 {
	if row := d.row(b); row != nil {
		return row[col]
	}
	return 0
}

// set fills the block's empty cell in column col, giving the block a row
// if it had none.
func (d *directory) set(b BlockID, col int, v uint16) {
	info := &d.mem.blocks[b]
	if info.slot == 0 {
		if n := len(d.free); n > 0 {
			info.slot, d.free = d.free[n-1], d.free[:n-1]
		} else {
			d.rows = append(d.rows, make([]uint16, d.cols+1)...)
			info.slot = uint32(len(d.rows) / (d.cols + 1))
			// Room to recycle every row without allocating (free is empty).
			d.free = slices.Grow(d.free, int(info.slot))
		}
	}
	row := d.row(b)
	row[col] = v
	row[d.cols]++
}

// clear empties the block's filled cell in column col and recycles the row
// once no cache holds the block.
func (d *directory) clear(b BlockID, col int) {
	row := d.row(b)
	row[col] = 0
	if row[d.cols]--; row[d.cols] == 0 {
		info := &d.mem.blocks[b]
		d.free = append(d.free, info.slot)
		info.slot = 0
	}
}

// lruCache is a fixed-capacity LRU set of BlockIDs with O(1) lookup,
// insert and eviction. Entries live in a slice-backed arena linked by
// indices and recycled through a free list, and are found through the
// cache's column of the machine's directory, so steady-state churn (every
// simulated memory access touches two caches) allocates nothing and a
// lookup is two loads.
type lruCache struct {
	capacity int
	n        int
	dir      *directory
	col      int
	ent      []lruEntry
	free     []int32
	head     int32 // most recently used
	tail     int32 // least recently used
}

type lruEntry struct {
	block      BlockID
	prev, next int32
}

// newCache returns the empty cache that owns column col. Topology.Validate
// bounds capacity below 65535, so an arena index + 1 fits a cell.
func (d *directory) newCache(col, capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		capacity: capacity,
		dir:      d,
		col:      col,
		ent:      make([]lruEntry, 0, capacity),
		head:     noEntry,
		tail:     noEntry,
	}
}

// Touch promotes the block to most-recently-used, inserting it if absent.
// It returns whether the block was already resident and, when an insertion
// evicted an older block, that victim.
func (c *lruCache) Touch(b BlockID) (hit bool, evicted BlockID, didEvict bool) {
	if e := c.dir.get(b, c.col); e != 0 {
		c.moveToFront(int32(e) - 1)
		return true, 0, false
	}
	var e int32
	if c.n == c.capacity {
		// Full: the least recently used entry is recycled for b in place.
		e = c.tail
		evicted, didEvict = c.ent[e].block, true
		c.dir.clear(evicted, c.col)
		c.remove(e)
		c.ent[e].block = b
	} else {
		e = c.alloc(b)
		c.n++
	}
	c.dir.set(b, c.col, uint16(e+1))
	c.pushFront(e)
	return false, evicted, didEvict
}

// Invalidate drops the block if resident, returning whether it was.
func (c *lruCache) Invalidate(b BlockID) bool {
	e := int32(c.dir.get(b, c.col)) - 1
	if e < 0 {
		return false
	}
	c.dir.clear(b, c.col)
	c.remove(e)
	c.free = append(c.free, e)
	c.n--
	return true
}

// Clear empties the cache (used when a thread migrates away and its
// working set is lost), keeping the arena.
func (c *lruCache) Clear() {
	for e := c.head; e != noEntry; e = c.ent[e].next {
		c.dir.clear(c.ent[e].block, c.col)
	}
	c.n = 0
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
// L3s of the whole machine with the directory that indexes them.
type cacheHierarchy struct {
	topo    *Topology
	dir     *directory
	caches  []*lruCache // by directory column: private caches, then L3s
	private []*lruCache // caches[:cores], indexed by CoreID; stands in for L1+L2
	shared  []*lruCache // caches[cores:], indexed by NodeID; the L3
}

// newCacheHierarchy returns the empty caches of a machine whose memory is
// mem; the blocks they hold are mem's.
func newCacheHierarchy(t *Topology, mem *Memory) *cacheHierarchy {
	cores := t.TotalCores()
	h := &cacheHierarchy{topo: t, caches: make([]*lruCache, cores+t.NodeCount)}
	h.dir = newDirectory(mem, len(h.caches))
	h.private, h.shared = h.caches[:cores], h.caches[cores:]
	for col := range h.caches {
		capacity := (t.L1Bytes + t.L2Bytes) / t.BlockBytes
		if col >= cores {
			capacity = t.L3Bytes / t.BlockBytes
		}
		h.caches[col] = h.dir.newCache(col, capacity)
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

// accessCaches walks a core's private cache and its node's L3 for one
// block access, filling them on the way, and returns the level that
// satisfied it.
func accessCaches(private, l3 *lruCache, b BlockID) lookupLevel {
	if hit, _, _ := private.Touch(b); hit {
		// Keep L3 inclusive of private caches so shared readers on the
		// same node observe the block as resident.
		l3.Touch(b)
		return levelPrivate
	}
	if hit, _, _ := l3.Touch(b); hit {
		return levelL3
	}
	return levelMemory
}

// invalidateRemote removes the block from every cache but the writer's own
// private cache and its node's L3, returning how many node-level copies
// were invalidated. This is the coherence cost a write imposes when readers
// on other sockets hold the block (the paper's "cache invalidations between
// the threads"). The block's directory row is its sharer set, so only
// caches that hold the block are visited.
func (h *cacheHierarchy) invalidateRemote(writerCore CoreID, b BlockID) int {
	ownL3 := len(h.private) + int(h.topo.NodeOf(writerCore))
	invalidated := 0
	row := h.dir.row(b)
	if row == nil {
		return 0
	}
	for col, e := range row[:h.dir.cols] {
		if e == 0 || col == int(writerCore) || col == ownL3 {
			continue
		}
		h.caches[col].Invalidate(b)
		if col >= len(h.private) {
			invalidated++
		}
	}
	return invalidated
}

// dropCore clears a core's private cache, modelling lost affinity after a
// thread migration replaced its working set.
func (h *cacheHierarchy) dropCore(core CoreID) { h.private[core].Clear() }
