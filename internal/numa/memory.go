package numa

import (
	"fmt"
	"slices"
)

// BlockID identifies one placement block of simulated physical memory.
// Blocks are the granularity of homing (first touch), caching and traffic
// accounting; each block spans Topology.PagesPerBlock VM pages.
type BlockID uint64

// NoNode marks a block that has not been first-touched yet.
const NoNode NodeID = -1

// noHome is NoNode as blockInfo stores it.
const noHome = int8(NoNode)

// Region is a contiguous run of blocks returned by Memory.Alloc. It is the
// unit handed to storage layers (a BAT segment, an intermediate result).
type Region struct {
	Start  BlockID
	Blocks int
}

// Block returns the i-th block of the region.
func (r Region) Block(i int) BlockID { return r.Start + BlockID(i) }

// blockInfo is the state of one block, 12 bytes: every block ever allocated
// keeps one, so its size is a per-block cost of the whole run.
type blockInfo struct {
	// mapped is a bitmask of nodes that have established a mapping to the
	// block. The first mapping from a node other than the home produces a
	// remote minor fault (Section II-B.1 of the paper). Topology.Validate
	// bounds NodeCount by its width.
	mapped uint32
	// slot belongs to the machine's cache directory: the block's row of
	// residency cells, 0 while no cache holds the block.
	slot uint32
	home int8 // node owning the backing frame; NoNode until first touch
}

// Memory is the machine's physical memory: a bump allocator plus the
// per-block placement table implementing the node-local first-touch policy.
// Regions are never released: a block's id, home and cache residency last
// as long as the machine.
type Memory struct {
	topo   *Topology
	blocks []blockInfo

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
	start := len(m.blocks)
	m.blocks = slices.Grow(m.blocks, n)[:start+n]
	fresh := m.blocks[start:]
	for i := range fresh {
		fresh[i] = blockInfo{home: noHome}
	}
	return Region{Start: BlockID(start), Blocks: n}
}

// HomeRegionOn eagerly homes every block of an allocated region on the
// given node under the owner pid, modelling loader first-touch (the
// database is loaded before the mechanism runs; each column lands on the
// node its loader thread occupied). No demand-paging faults are charged.
func (m *Memory) HomeRegionOn(r Region, node NodeID, pid int) {
	for i := 0; i < r.Blocks; i++ {
		b := &m.blocks[r.Block(i)]
		if b.home != noHome {
			continue
		}
		b.home = int8(node)
		b.mapped = 1 << uint(node)
		m.addResidency(pid, node, 1)
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

// touchResult describes what the placement layer observed for one access.
type touchResult struct {
	home        NodeID
	firstTouch  bool // block was homed by this access
	remoteFault bool // first mapping from a non-home node
}

// touch implements the first-touch policy and the two minor-fault
// situations of Section II-B.1: (1) the data first touch, homing the block
// on the local node, and (2) the first remote access to data already
// touched by another thread on a different node.
func (m *Memory) touch(b BlockID, node NodeID, pid int) touchResult {
	if int(b) >= len(m.blocks) {
		panic(fmt.Sprintf("numa: touch of unallocated block %d", b))
	}
	info := &m.blocks[b]
	bit := uint32(1) << uint(node)
	if info.home == noHome {
		info.home = int8(node)
		info.mapped = bit
		m.minorFaults[node] += uint64(m.topo.PagesPerBlock())
		m.addResidency(pid, node, 1)
		return touchResult{home: node, firstTouch: true}
	}
	if info.mapped&bit == 0 {
		info.mapped |= bit
		m.minorFaults[node] += uint64(m.topo.PagesPerBlock())
		return touchResult{home: NodeID(info.home), remoteFault: true}
	}
	return touchResult{home: NodeID(info.home)}
}

// Home returns the node owning the block, or NoNode if untouched.
func (m *Memory) Home(b BlockID) NodeID {
	if int(b) >= len(m.blocks) {
		return NoNode
	}
	return NodeID(m.blocks[b].home)
}

func (m *Memory) addResidency(pid int, node NodeID, delta int) {
	counts, ok := m.residency[pid]
	if !ok {
		counts = make([]int, m.topo.NodeCount)
		m.residency[pid] = counts
	}
	counts[node] += delta
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
