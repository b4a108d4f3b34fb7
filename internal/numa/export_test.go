package numa

import "fmt"

// RandomRanges lends the external tests (package numa_test, which may
// import the scheduler) the seeded access mix of accessrange_test.go.
var RandomRanges = randomRanges

// Zoo returns a fresh instance of every zoo topology keyed by canonical
// name.
func Zoo() map[string]*Topology {
	out := make(map[string]*Topology, len(zooEntries))
	for _, e := range zooEntries {
		out[e.name] = e.build()
	}
	return out
}

// Diameter returns the largest hop distance between any two nodes.
func (t *Topology) Diameter() int {
	max := 0
	for _, row := range t.Distance {
		for _, h := range row {
			if h > max {
				max = h
			}
		}
	}
	return max
}

// Contains reports whether b falls inside the region.
func (r Region) Contains(b BlockID) bool {
	return b >= r.Start && b < r.Start+BlockID(r.Blocks)
}

// MinorFaults returns the cumulative minor page-fault count per node.
func (m *Memory) MinorFaults() []uint64 {
	out := make([]uint64, len(m.minorFaults))
	copy(out, m.minorFaults)
	return out
}

// TotalBlocks returns the number of blocks ever allocated (address-space
// high-water mark).
func (m *Memory) TotalBlocks() int { return m.n }

// cell returns the block's cell in the cache's column: its arena index + 1,
// 0 when the cache does not hold it.
func (c *lruCache) cell(b BlockID) uint16 {
	if s := c.dir.mem.block(b).slot; s != 0 {
		return c.dir.row(s)[c.col]
	}
	return 0
}

// Contains reports whether the block is resident without promoting it.
func (c *lruCache) Contains(b BlockID) bool { return c.cell(b) != 0 }

// Touch promotes the block to most-recently-used, inserting it if absent.
// It returns whether the block was already resident and, when an insertion
// evicted an older block, that victim.
func (c *lruCache) Touch(b BlockID) (hit bool, evicted BlockID, didEvict bool) {
	info := c.dir.mem.block(b)
	if c.cell(b) != 0 {
		return c.touch(b, info.slot, c.dir.row(info.slot)), 0, false
	}
	if c.n == c.capacity {
		evicted, didEvict = c.ent[c.tail].block, true
	}
	e := c.take()
	s := info.slot
	if s == 0 {
		s = c.dir.newRow(info)
	}
	c.put(e, b, s, c.dir.row(s))
	return false, evicted, didEvict
}

// Invalidate drops the block if resident, returning whether it was.
func (c *lruCache) Invalidate(b BlockID) bool {
	e := c.cell(b)
	if e != 0 {
		c.drop(int32(e) - 1)
	}
	return e != 0
}

// Len returns the number of resident blocks.
func (c *lruCache) Len() int { return c.n }

// l3Resident reports whether the block is in the node's L3 (for tests).
func (h *cacheHierarchy) l3Resident(n NodeID, b BlockID) bool {
	return h.shared[n].Contains(b)
}

// LinesPerBlock returns how many cache lines one placement block spans.
func (t *Topology) LinesPerBlock() int { return t.BlockBytes / t.CacheLineBytes }

// Access describes one memory operation: Bytes bytes read or written
// within a single placement block. It and Machine.Access are the one-block
// reference TestAccessRangeMatchesAccessLoop charges AccessRange against.
type Access struct {
	Block BlockID
	Bytes int
	Write bool
	// PID attributes first-touch residency; zero means anonymous.
	PID int
}

// Access charges one memory operation executed on the given core and
// returns its cost: the one-block AccessRange.
func (m *Machine) Access(core CoreID, a Access) Cost {
	if a.Bytes <= 0 {
		return Cost{}
	}
	if a.Bytes > m.topo.BlockBytes {
		panic(fmt.Sprintf("numa: access of %d bytes exceeds block size %d", a.Bytes, m.topo.BlockBytes))
	}
	return m.AccessRange(core, RangeAccess{Start: a.Block, Blocks: 1, FirstBytes: a.Bytes, Write: a.Write, PID: a.PID})
}
