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
// BlockID is a position in Memory's block table, so residency is looked up
// by position and nothing is hashed: a block that is resident somewhere
// keeps, in its blockInfo, the slot of a row with one cell per cache (cores
// first, then the L3s) and a last cell counting the non-zero ones. A cell
// holds the block's LRU-arena index + 1 in that cache, 0 when the block is
// not resident there, so a row is also the block's sharer set. Rows exist
// only for resident blocks — at most the summed capacity of the caches,
// however many blocks were ever allocated — and are recycled when the last
// cache drops the block. Every arena entry keeps its block's slot, so a
// cache that drops an entry finds the row without reading the block.
type directory struct {
	mem  *Memory
	cols int      // caches; a row is cols + 1 cells
	rows []uint16 // row of slot s at [(s-1)*(cols+1), s*(cols+1))
	free []uint32 // slots of recycled, all-zero rows
}

func newDirectory(mem *Memory, caches int) *directory {
	return &directory{mem: mem, cols: caches}
}

// row returns the cells of slot s.
func (d *directory) row(s uint32) []uint16 {
	w := d.cols + 1
	return d.rows[(int(s)-1)*w : int(s)*w]
}

// newRow gives a block that no cache holds an empty row and returns its
// slot.
func (d *directory) newRow(info *blockInfo) uint32 {
	if n := len(d.free); n > 0 {
		info.slot, d.free = d.free[n-1], d.free[:n-1]
		return info.slot
	}
	d.rows = append(d.rows, make([]uint16, d.cols+1)...)
	info.slot = uint32(len(d.rows) / (d.cols + 1))
	// Room to recycle every row without allocating (free is empty).
	d.free = slices.Grow(d.free, int(info.slot))
	return info.slot
}

// clear empties the filled cell in column col of block b's row, slot s,
// and recycles the row once no cache holds the block. Recycling never
// moves a row, so a caller may hold another block's row across it.
func (d *directory) clear(b BlockID, s uint32, col int) {
	row := d.row(s)
	row[col] = 0
	if row[d.cols]--; row[d.cols] == 0 {
		d.free = append(d.free, s)
		d.mem.block(b).slot = 0
	}
}

// lruCache is a fixed-capacity LRU set of BlockIDs with O(1) lookup,
// insert and eviction. Entries live in a slice-backed arena linked by
// indices and recycled through a free list, and are found through the
// cache's column of the machine's directory, so steady-state churn (every
// simulated memory access touches two caches) allocates nothing and a
// lookup is one cell of a row the caller has already read.
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
	slot       uint32 // the block's directory row
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

// touch promotes block b, whose directory row is row at slot s, to most
// recently used, inserting it if absent, and returns whether it was
// already resident.
func (c *lruCache) touch(b BlockID, s uint32, row []uint16) (hit bool) {
	if e := row[c.col]; e != 0 {
		c.moveToFront(int32(e) - 1)
		return true
	}
	c.put(c.take(), b, s, row)
	return false
}

// take returns the unlinked arena entry a block entering the cache will
// occupy: when the cache is full, its least recently used entry, whose
// block leaves the directory column; otherwise a free or a new entry.
func (c *lruCache) take() int32 {
	if c.n == c.capacity {
		e := c.tail
		c.dir.clear(c.ent[e].block, c.ent[e].slot, c.col)
		c.remove(e)
		return e
	}
	c.n++
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free = c.free[:n-1]
		return e
	}
	c.ent = append(c.ent, lruEntry{})
	return int32(len(c.ent) - 1)
}

// put links entry e, from take, as block b's most recently used entry and
// fills the cache's cell of b's row, slot s.
func (c *lruCache) put(e int32, b BlockID, s uint32, row []uint16) {
	c.ent[e].block, c.ent[e].slot = b, s
	c.pushFront(e)
	row[c.col] = uint16(e + 1)
	row[len(row)-1]++
}

// drop removes entry e and its block from the cache.
func (c *lruCache) drop(e int32) {
	c.dir.clear(c.ent[e].block, c.ent[e].slot, c.col)
	c.remove(e)
	c.free = append(c.free, e)
	c.n--
}

// Clear empties the cache (used when a thread migrates away and its
// working set is lost), keeping the arena.
func (c *lruCache) Clear() {
	for e := c.head; e != noEntry; e = c.ent[e].next {
		c.dir.clear(c.ent[e].block, c.ent[e].slot, c.col)
	}
	c.n = 0
	c.free = c.free[:0]
	for i := range c.ent {
		c.free = append(c.free, int32(i))
	}
	c.head, c.tail = noEntry, noEntry
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

// walk looks one access to block b, whose state is info, up in a core's
// private cache and its node's L3, filling both, and returns the level
// that served it. It reads the block's directory row once, and a block with no
// row misses both levels and enters both without a lookup. A private hit
// touches the L3 too, keeping it inclusive of the private caches so shared
// readers on the same node observe the block as resident; afterwards both
// caches hold the block.
func (h *cacheHierarchy) walk(private, l3 *lruCache, b BlockID, info *blockInfo) lookupLevel {
	d := h.dir
	if info.slot == 0 {
		// Evict first: a victim's recycled row may become b's.
		ep, el := private.take(), l3.take()
		s := d.newRow(info)
		row := d.row(s)
		private.put(ep, b, s, row)
		l3.put(el, b, s, row)
		return levelMemory
	}
	s := info.slot
	row := d.row(s)
	if e := row[private.col]; e != 0 {
		private.moveToFront(int32(e) - 1)
		l3.touch(b, s, row)
		return levelPrivate
	}
	private.put(private.take(), b, s, row)
	if l3.touch(b, s, row) {
		return levelL3
	}
	return levelMemory
}

// invalidateRemote removes the block from every cache but the writer's own
// private cache and its node's L3, returning how many node-level copies
// were invalidated. This is the coherence cost a write imposes when readers
// on other sockets hold the block (the paper's "cache invalidations between
// the threads"). The block's directory row is its sharer set, so only
// caches that hold the block are visited, and a row that counts two cells,
// the writer's own two, is not walked at all: after AccessRange's own
// access both hold the block, so every write that found no copy elsewhere
// ends here.
func (h *cacheHierarchy) invalidateRemote(writerCore CoreID, b BlockID) int {
	s := h.dir.mem.block(b).slot
	if s == 0 {
		return 0
	}
	ownL3 := len(h.private) + int(h.topo.NodeOf(writerCore))
	row := h.dir.row(s)
	if row[h.dir.cols] == 2 && row[writerCore] != 0 && row[ownL3] != 0 {
		return 0
	}
	invalidated := 0
	for col, e := range row[:h.dir.cols] {
		if e == 0 || col == int(writerCore) || col == ownL3 {
			continue
		}
		h.caches[col].drop(int32(e) - 1)
		if col >= len(h.private) {
			invalidated++
		}
	}
	return invalidated
}

// dropCore clears a core's private cache, modelling lost affinity after a
// thread migration replaced its working set.
func (h *cacheHierarchy) dropCore(core CoreID) { h.private[core].Clear() }
