package numa

import "fmt"

// BlockID identifies one placement block of simulated physical memory.
// Blocks are the granularity of homing (first touch), caching and traffic
// accounting; each block spans Topology.PagesPerBlock VM pages.
type BlockID uint64

// NoNode marks a block that has not been first-touched yet.
const NoNode NodeID = -1

// Region is a contiguous run of blocks returned by Memory.Alloc. It is the
// unit handed to storage layers (a BAT segment, an intermediate result).
type Region struct {
	Start  BlockID
	Blocks int
}

// Block returns the i-th block of the region.
func (r Region) Block(i int) BlockID { return r.Start + BlockID(i) }

// blockInfo is the state of one block, 12 bytes: every block ever allocated
// keeps one, so its size is a per-block cost of the whole run. Its zero
// value is a block no node has touched and no cache holds, so a fresh page
// of the block table needs no initialising.
type blockInfo struct {
	// mapped is a bitmask of nodes that have established a mapping to the
	// block; it is non-zero exactly once the block is homed. The first
	// mapping from a node other than the home produces a remote minor fault
	// (Section II-B.1 of the paper). Topology.Validate bounds NodeCount by
	// its width.
	mapped uint32
	// slot belongs to the machine's cache directory: the block's row of
	// residency cells, 0 while no cache holds the block.
	slot uint32
	home uint8 // node owning the backing frame + 1; 0 until first touch
}

// pageBlocks is the number of blockInfo in one page of the block table
// (48 KB a page).
const pageBlocks = 1 << 12

// Memory is the machine's physical memory: a bump allocator plus the
// per-block placement table implementing the node-local first-touch policy.
// Regions are never released: a block's id, home and cache residency last
// as long as the machine. The table is a list of fixed-size pages, so
// allocating moves the high-water mark and, when it crosses into a new
// page, appends a zeroed one: no block's state is ever copied.
type Memory struct {
	topo  *Topology
	pages []*[pageBlocks]blockInfo
	n     int // blocks allocated: the high-water mark

	// residency[pid][node] counts blocks first-touched by pid homed on
	// node. This is the information the adaptive priority mode reads
	// (Section IV-B.2: "the number of pages per NUMA node is recorded in a
	// counter").
	residency map[int][]int

	// per-node counters, owned by Machine but updated here
	minorFaults []uint64
}

// NewMemory creates an empty memory for the topology.
func NewMemory(t *Topology) *Memory {
	return &Memory{
		topo:        t,
		residency:   make(map[int][]int),
		minorFaults: make([]uint64, t.NodeCount),
	}
}

// Alloc reserves a region of n blocks at the end of the block space.
// Placement is lazy: each block is homed at first touch on the node of the
// touching core (the Linux node-local default policy the paper assumes).
func (m *Memory) Alloc(n int) Region {
	if n <= 0 {
		panic(fmt.Sprintf("numa: Alloc(%d): size must be positive", n))
	}
	start := m.n
	m.n += n
	for len(m.pages)*pageBlocks < m.n {
		m.pages = append(m.pages, new([pageBlocks]blockInfo))
	}
	return Region{Start: BlockID(start), Blocks: n}
}

// block returns the state of an allocated block.
func (m *Memory) block(b BlockID) *blockInfo {
	if b >= BlockID(m.n) {
		panic(fmt.Sprintf("numa: access to unallocated block %d", b))
	}
	return &m.pages[b/pageBlocks][b%pageBlocks]
}

// HomeRegionOn eagerly homes every block of an allocated region on the
// given node under the owner pid, modelling loader first-touch (the
// database is loaded before the mechanism runs; each column lands on the
// node its loader thread occupied). No demand-paging faults are charged.
func (m *Memory) HomeRegionOn(r Region, node NodeID, pid int) {
	homed := 0
	for i := 0; i < r.Blocks; i++ {
		b := m.block(r.Block(i))
		if b.home != 0 {
			continue
		}
		b.home = uint8(node) + 1
		b.mapped = 1 << uint(node)
		homed++
	}
	if homed > 0 {
		m.residencyOf(pid)[node] += homed
	}
}

// AllocOn reserves a region of n blocks eagerly homed on the given node,
// modelling an explicit numactl-style placement (used by the NUMA-aware
// engine variant and by tests).
func (m *Memory) AllocOn(n int, node NodeID, pid int) Region {
	r := m.Alloc(n)
	m.HomeRegionOn(r, node, pid)
	return r
}

// mapFrom records the first mapping of a block from node, which costs a
// minor fault of every page of the block. It is one of the two situations
// of Section II-B.1: (1) the data first touch, which homes the block on the
// local node under pid, or (2) the first access from another node to data
// already touched there.
func (m *Memory) mapFrom(b *blockInfo, node NodeID, pid int) {
	if b.mapped == 0 {
		b.home = uint8(node) + 1
		m.residencyOf(pid)[node]++
	}
	b.mapped |= 1 << uint(node)
	m.minorFaults[node] += uint64(m.topo.PagesPerBlock())
}

// homeOf returns the node owning the block, or NoNode before first touch.
func (b *blockInfo) homeOf() NodeID { return NodeID(b.home) - 1 }

// Home returns the node owning the block, or NoNode if untouched.
func (m *Memory) Home(b BlockID) NodeID {
	if b >= BlockID(m.n) {
		return NoNode
	}
	return m.block(b).homeOf()
}

// residencyOf returns pid's per-node homed-block counts, adding a row for
// a pid seen for the first time.
func (m *Memory) residencyOf(pid int) []int {
	counts, ok := m.residency[pid]
	if !ok {
		counts = make([]int, m.topo.NodeCount)
		m.residency[pid] = counts
	}
	return counts
}

// Residency returns, for the given set of PIDs, the number of blocks homed
// on each node. This is the per-node page counter that feeds the
// adaptive mode's priority queue.
func (m *Memory) Residency(pids []int) []int {
	out := make([]int, m.topo.NodeCount)
	for _, pid := range pids {
		if counts, ok := m.residency[pid]; ok {
			for n, c := range counts {
				out[n] += c
			}
		}
	}
	return out
}
