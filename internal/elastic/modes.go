// Package elastic implements the paper's core contribution: the elastic
// multi-core allocation mechanism (Sections III-IV). It samples hardware
// counters each control period, classifies the database's performance
// state through the PrT net, and allocates or releases one core at the
// NUMA node chosen by the active allocation mode — handing the OS only the
// local optimum number of cores (LONC) for the current workload.
package elastic

import (
	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// Allocator decides *where* the next core is allocated or released once
// the PrT net decides *whether* (Section IV-B). Implementations are the
// paper's three allocation modes and the topology-aware node-fill, hop-min
// and scatter modes.
type Allocator interface {
	// Next returns the core to add: a core outside occupied, which holds
	// current and, under consolidation, every other tenant's cores. The
	// fixed-order modes scan for the first free core; the topology-aware
	// modes rank the free cores relative to current. ok is false when
	// every core is occupied.
	Next(current, occupied sched.CPUSet) (numa.CoreID, bool)
	// Victim returns the core to release given the currently allocated
	// set, or false when no core can be released.
	Victim(current sched.CPUSet) (numa.CoreID, bool)
}

// denseOrder returns the allocation sequence of the dense mode: iterate
// over j within i — fill a node completely before moving to the next
// (Figure 12 (b)).
func denseOrder(t *numa.Topology) []numa.CoreID {
	out := make([]numa.CoreID, 0, t.TotalCores())
	for i := 0; i < t.NodeCount; i++ {
		for j := 0; j < t.CoresPerNode; j++ {
			out = append(out, t.CoreOf(numa.NodeID(i), j))
		}
	}
	return out
}

// sparseOrder returns the allocation sequence of the sparse mode: iterate
// over i within j — one core at a time on a different NUMA node
// (Figure 12 (a)).
func sparseOrder(t *numa.Topology) []numa.CoreID {
	out := make([]numa.CoreID, 0, t.TotalCores())
	for j := 0; j < t.CoresPerNode; j++ {
		for i := 0; i < t.NodeCount; i++ {
			out = append(out, t.CoreOf(numa.NodeID(i), j))
		}
	}
	return out
}

// sequenceAllocator allocates along a fixed core order and releases in the
// reverse order (incremental allocation as in Porobic et al. and the
// paper's Figure 12).
type sequenceAllocator struct {
	order []numa.CoreID
}

// NewDense returns the dense allocation mode: cores are handed out within
// one NUMA node before the next node is opened, maximizing cache sharing
// for threads over shared data.
func NewDense(t *numa.Topology) Allocator {
	return &sequenceAllocator{order: denseOrder(t)}
}

// NewSparse returns the sparse allocation mode: consecutive cores land on
// different NUMA nodes, spreading threads over private data apart to avoid
// cache competition.
func NewSparse(t *numa.Topology) Allocator {
	return &sequenceAllocator{order: sparseOrder(t)}
}

func (a *sequenceAllocator) Next(_, occupied sched.CPUSet) (numa.CoreID, bool) {
	for _, c := range a.order {
		if !occupied.Contains(c) {
			return c, true
		}
	}
	return 0, false
}

func (a *sequenceAllocator) Victim(current sched.CPUSet) (numa.CoreID, bool) {
	if current.Count() <= 1 {
		return 0, false
	}
	for i := len(a.order) - 1; i >= 0; i-- {
		if current.Contains(a.order[i]) {
			return a.order[i], true
		}
	}
	return 0, false
}

// ResidencyFunc reports, per NUMA node, the number of live memory blocks
// owned by the tracked process group (numa.Machine.Residency over the
// cgroup's PIDs). The vector it returns is valid until its next call: a
// source may write every reading into the same one, so a caller that keeps
// a reading copies it.
type ResidencyFunc func() []int

// adaptiveAllocator is the adaptive priority mode (Section IV-B.2): the
// next core is allocated on the node where the database threads hold the
// most memory; the released core comes from the node where they hold the
// least.
type adaptiveAllocator struct {
	topo      *numa.Topology
	residency ResidencyFunc
	ranked    []numa.NodeID // rank's buffer, reused across decisions
	reads     uint64        // residency vectors read (Mechanism.ResidencyReads)
}

// NewAdaptive returns the adaptive priority allocation mode backed by the
// given residency source.
func NewAdaptive(t *numa.Topology, residency ResidencyFunc) Allocator {
	return &adaptiveAllocator{topo: t, residency: residency}
}

// rank reads a fresh residency vector and orders every node by it, most
// resident first, ties to the lower node id; it keeps nothing of the
// vector. It is the paper's "priority
// queue [that] indicate[s] the node with the largest/smallest amount of
// allocated memory (on top/bottom priority)": the top node receives the
// next core, the bottom node gives one up. The ranking is rebuilt from
// each reading, so no state survives between decisions.
func (a *adaptiveAllocator) rank() []numa.NodeID {
	a.reads++
	pages := a.residency()
	r := a.ranked[:0]
	for n := 0; n < a.topo.NodeCount; n++ {
		// Insertion sort: node count is small, and scanning nodes upward
		// while moving n only past strictly poorer nodes breaks ties toward
		// the lower id.
		i := len(r)
		r = append(r, numa.NodeID(n))
		for ; i > 0 && pages[r[i-1]] < pages[n]; i-- {
			r[i] = r[i-1]
		}
		r[i] = numa.NodeID(n)
	}
	a.ranked = r
	return r
}

// Next allocates in the highest-priority node that still has a free core;
// within a node, lower core indices first.
func (a *adaptiveAllocator) Next(_, occupied sched.CPUSet) (numa.CoreID, bool) {
	for _, n := range a.rank() {
		if c, ok := lowestFreeCore(a.topo, n, occupied); ok {
			return c, true
		}
	}
	return 0, false
}

// Victim releases from the lowest-priority node that has an allocated
// core; within a node, higher core indices first.
func (a *adaptiveAllocator) Victim(current sched.CPUSet) (numa.CoreID, bool) {
	if current.Count() <= 1 {
		return 0, false
	}
	ranked := a.rank()
	for i := len(ranked) - 1; i >= 0; i-- {
		if c, ok := highestHeldCore(a.topo, ranked[i], current); ok {
			return c, true
		}
	}
	return 0, false
}
