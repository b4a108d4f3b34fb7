// Package numa models a cache-coherent Non-Uniform Memory Access machine:
// its topology (nodes, cores, interconnect links), its memory banks with
// page-granular first-touch placement, its per-node shared last-level
// caches, and the full hardware-counter surface (L3 misses, HyperTransport
// traffic, integrated-memory-controller traffic, minor page faults,
// invalidations) that the elastic allocation mechanism consumes.
//
// The model is deterministic and counter-accurate rather than cycle-exact:
// it reproduces the observable surface of the AMD Opteron 8387 testbed used
// by Dominico et al. (ICDE 2018) — the quantities their mechanism reads via
// likwid, mpstat and /proc — so the identical control loop can be exercised
// without physical hardware.
package numa

import (
	"fmt"
	"strings"
)

// NodeID identifies a NUMA node (socket).
type NodeID int

// CoreID identifies a physical core, numbered 0..TotalCores-1 across all
// nodes. Core c belongs to node c / CoresPerNode in the default layout
// core(i, j) = d*i + j used throughout the paper (Section IV-B.1).
type CoreID int

// Topology describes the static shape of the machine: node and core counts,
// cache geometry, memory page size, interconnect bandwidths and the
// inter-node hop-distance matrix.
type Topology struct {
	// NodeCount is the number of NUMA nodes (sockets).
	NodeCount int
	// CoresPerNode is the number of cores attached to each node.
	CoresPerNode int
	// ClockHz is the core clock used to convert cycles to seconds.
	ClockHz float64

	// CacheLineBytes is the coherence granularity (typically 64).
	CacheLineBytes int
	// PageBytes is the virtual-memory page size used for minor-fault
	// accounting (typically 4096).
	PageBytes int
	// BlockBytes is the placement and cache-modelling granularity. Memory
	// is allocated, homed and cached in blocks of this size. Must be a
	// multiple of PageBytes.
	BlockBytes int

	// L1Bytes, L2Bytes are the per-core private cache sizes.
	L1Bytes, L2Bytes int
	// L3Bytes is the per-node shared cache size.
	L3Bytes int

	// MemBandwidth is the per-node local memory (IMC) bandwidth in
	// bytes/second.
	MemBandwidth float64
	// HTBandwidth is the aggregate interconnect bandwidth in bytes/second
	// across all links (the paper's 41.6 GB/s maximum aggregate).
	HTBandwidth float64

	// Distance[i][j] is the hop count between nodes i and j (0 on the
	// diagonal). Remote access latency grows with distance.
	Distance [][]int
}

// Opteron8387 returns the topology of the paper's testbed: four NUMA nodes,
// each a Quad-Core AMD Opteron 8387 at 2.8 GHz with 64 KB L1, 512 KB L2,
// 6 MB shared L3, DDR-2 memory banks, interconnected by HyperTransport 3.x
// links with 41.6 GB/s maximum aggregate bandwidth (paper Figure 2).
func Opteron8387() *Topology {
	return &Topology{
		NodeCount:    4,
		CoresPerNode: 4,
		ClockHz:      2.8e9,

		CacheLineBytes: 64,
		PageBytes:      4096,
		BlockBytes:     16 * 1024,

		L1Bytes: 64 * 1024,
		L2Bytes: 512 * 1024,
		L3Bytes: 6 * 1024 * 1024,

		MemBandwidth: 8.0e9,
		HTBandwidth:  41.6e9,

		// Figure 2: square of sockets; adjacent sockets one hop apart,
		// diagonal sockets two hops.
		Distance: [][]int{
			{0, 1, 1, 2},
			{1, 0, 2, 1},
			{1, 2, 0, 1},
			{2, 1, 1, 0},
		},
	}
}

// Bounds Validate enforces for the packed per-block state: blockInfo.mapped
// has one bit per node, and a directory cell holds a cache's arena index + 1
// in 16 bits.
const (
	maxNodes       = 32
	maxCacheBlocks = 1<<16 - 1
)

// Validate checks structural invariants of the topology.
func (t *Topology) Validate() error {
	switch {
	case t.NodeCount <= 0:
		return fmt.Errorf("numa: NodeCount must be positive, got %d", t.NodeCount)
	case t.NodeCount > maxNodes:
		return fmt.Errorf("numa: NodeCount %d exceeds %d, the width of a block's mapped-node mask", t.NodeCount, maxNodes)
	case t.CoresPerNode <= 0:
		return fmt.Errorf("numa: CoresPerNode must be positive, got %d", t.CoresPerNode)
	case t.ClockHz <= 0:
		return fmt.Errorf("numa: ClockHz must be positive, got %g", t.ClockHz)
	case t.CacheLineBytes <= 0:
		return fmt.Errorf("numa: CacheLineBytes must be positive, got %d", t.CacheLineBytes)
	case t.PageBytes <= 0:
		return fmt.Errorf("numa: PageBytes must be positive, got %d", t.PageBytes)
	case t.BlockBytes <= 0 || t.BlockBytes%t.PageBytes != 0:
		return fmt.Errorf("numa: BlockBytes (%d) must be a positive multiple of PageBytes (%d)", t.BlockBytes, t.PageBytes)
	case t.L3Bytes < t.BlockBytes:
		return fmt.Errorf("numa: L3Bytes (%d) must hold at least one block (%d)", t.L3Bytes, t.BlockBytes)
	case t.L3Bytes/t.BlockBytes >= maxCacheBlocks || (t.L1Bytes+t.L2Bytes)/t.BlockBytes >= maxCacheBlocks:
		return fmt.Errorf("numa: a cache of %d blocks or more does not fit a directory cell (L1+L2 %d, L3 %d, block %d bytes)",
			maxCacheBlocks, t.L1Bytes+t.L2Bytes, t.L3Bytes, t.BlockBytes)
	case t.MemBandwidth <= 0 || t.HTBandwidth <= 0:
		return fmt.Errorf("numa: bandwidths must be positive")
	}
	if len(t.Distance) != t.NodeCount {
		return fmt.Errorf("numa: Distance matrix has %d rows, want %d", len(t.Distance), t.NodeCount)
	}
	for i, row := range t.Distance {
		if len(row) != t.NodeCount {
			return fmt.Errorf("numa: Distance row %d has %d entries, want %d", i, len(row), t.NodeCount)
		}
		if row[i] != 0 {
			return fmt.Errorf("numa: Distance[%d][%d] must be 0, got %d", i, i, row[i])
		}
		for j, d := range row {
			if d < 0 {
				return fmt.Errorf("numa: Distance[%d][%d] negative", i, j)
			}
			if t.Distance[j][i] != d {
				return fmt.Errorf("numa: Distance not symmetric at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// TotalCores returns the number of cores in the machine.
func (t *Topology) TotalCores() int { return t.NodeCount * t.CoresPerNode }

// NodeOf returns the node that core c belongs to.
func (t *Topology) NodeOf(c CoreID) NodeID { return NodeID(int(c) / t.CoresPerNode) }

// CoreOf returns the j-th core of node n, following the paper's allocation
// mode function core(i, j) = d*i + j (Section IV-B.1).
func (t *Topology) CoreOf(n NodeID, j int) CoreID {
	return CoreID(int(n)*t.CoresPerNode + j)
}

// Cores returns the cores belonging to node n in ascending order.
func (t *Topology) Cores(n NodeID) []CoreID {
	cs := make([]CoreID, t.CoresPerNode)
	for j := range cs {
		cs[j] = t.CoreOf(n, j)
	}
	return cs
}

// Hops returns the interconnect hop distance between two nodes.
func (t *Topology) Hops(a, b NodeID) int { return t.Distance[a][b] }

// PagesPerBlock returns how many VM pages one placement block spans.
func (t *Topology) PagesPerBlock() int { return t.BlockBytes / t.PageBytes }

// CyclesToSeconds converts a cycle count to wall-clock seconds at the
// machine's core frequency.
func (t *Topology) CyclesToSeconds(cycles uint64) float64 {
	return float64(cycles) / t.ClockHz
}

// SecondsToCycles converts seconds to cycles at the core frequency.
func (t *Topology) SecondsToCycles(s float64) uint64 {
	return uint64(s * t.ClockHz)
}

// String returns a short human-readable summary of the topology.
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d nodes x %d cores @ %.1f GHz, L3 %d MiB/node, HT %.1f GB/s",
		t.NodeCount, t.CoresPerNode, t.ClockHz/1e9,
		t.L3Bytes/(1024*1024), t.HTBandwidth/1e9)
	return b.String()
}
