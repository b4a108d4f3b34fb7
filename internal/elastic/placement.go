package elastic

import (
	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// placement.go makes *where* a core is granted a pluggable,
// topology-aware decision. The paper's dense/sparse orders are fixed
// index sequences derived from the testbed's core numbering; on machines
// whose interconnect is not a fully linked square (a ring, a twisted
// ladder, a chiplet package) the lowest-index node is not in general the
// cheapest one. A Placement ranks candidate cores by the topology's hop
// matrix instead, and the occupancy-aware entry point lets the
// multi-tenant arbiter keep each tenant's cores mutually close while
// skipping cores other tenants hold.

// Placement decides which core to add or release given the machine
// topology, the caller's own current set and (for growth) the set of
// cores occupied machine-wide — current plus every other tenant's
// holdings in the consolidated setting; identical to current for a
// single tenant. Implementations must be deterministic: equal inputs
// yield equal picks.
type Placement interface {
	// Name identifies the policy ("node-fill", "hop-min", "scatter").
	Name() string
	// Next returns the core to grant: a core outside occupied, chosen
	// relative to the caller's current set. ok is false when every core
	// is occupied.
	Next(t *numa.Topology, current, occupied sched.CPUSet) (numa.CoreID, bool)
	// Victim returns the core to release from current, or false when
	// current holds at most one core.
	Victim(t *numa.Topology, current sched.CPUSet) (numa.CoreID, bool)
}

// hopSum returns the total hop distance from node n to every core in
// the set — the placement cost of putting the next core on n.
func hopSum(t *numa.Topology, n numa.NodeID, set sched.CPUSet) int {
	sum := 0
	for _, c := range set.Cores() {
		sum += t.Hops(n, t.NodeOf(c))
	}
	return sum
}

// heldPerNode counts the set's cores on each node.
func heldPerNode(t *numa.Topology, set sched.CPUSet) []int {
	held := make([]int, t.NodeCount)
	for _, c := range set.Cores() {
		held[t.NodeOf(c)]++
	}
	return held
}

// lowestFreeCore returns node n's lowest-index core outside occupied.
func lowestFreeCore(t *numa.Topology, n numa.NodeID, occupied sched.CPUSet) (numa.CoreID, bool) {
	for _, c := range t.Cores(n) {
		if !occupied.Contains(c) {
			return c, true
		}
	}
	return 0, false
}

// highestHeldCore returns node n's highest-index core inside current.
func highestHeldCore(t *numa.Topology, n numa.NodeID, current sched.CPUSet) (numa.CoreID, bool) {
	cores := t.Cores(n)
	for i := len(cores) - 1; i >= 0; i-- {
		if current.Contains(cores[i]) {
			return cores[i], true
		}
	}
	return 0, false
}

// NodeFill packs cores socket by socket, like the dense mode, but picks
// each *new* socket by hop distance instead of index order: it keeps
// filling the node where the caller already holds cores, and when every
// held node is full it opens the free node closest (smallest total hop
// distance) to the cores already held. Shrinking retreats from the
// emptiest held node first, so the surviving allocation stays packed.
type NodeFill struct{}

// Name implements Placement.
func (NodeFill) Name() string { return "node-fill" }

// Next implements Placement.
func (NodeFill) Next(t *numa.Topology, current, occupied sched.CPUSet) (numa.CoreID, bool) {
	held := heldPerNode(t, current)
	// Keep filling the most-populated held node with free capacity.
	bestNode, bestHeld := numa.NodeID(-1), 0
	for n := 0; n < t.NodeCount; n++ {
		if held[n] == 0 {
			continue
		}
		if _, free := lowestFreeCore(t, numa.NodeID(n), occupied); !free {
			continue
		}
		if held[n] > bestHeld {
			bestNode, bestHeld = numa.NodeID(n), held[n]
		}
	}
	if bestNode >= 0 {
		return lowestFreeCore(t, bestNode, occupied)
	}
	// Open the free node nearest to the held cores (ties: lowest index).
	// With nothing held every hop sum is zero and node order decides.
	bestNode, bestCost := numa.NodeID(-1), 0
	for n := 0; n < t.NodeCount; n++ {
		if _, free := lowestFreeCore(t, numa.NodeID(n), occupied); !free {
			continue
		}
		cost := hopSum(t, numa.NodeID(n), current)
		if bestNode < 0 || cost < bestCost {
			bestNode, bestCost = numa.NodeID(n), cost
		}
	}
	if bestNode < 0 {
		return 0, false
	}
	return lowestFreeCore(t, bestNode, occupied)
}

// Victim implements Placement.
func (NodeFill) Victim(t *numa.Topology, current sched.CPUSet) (numa.CoreID, bool) {
	if current.Count() <= 1 {
		return 0, false
	}
	held := heldPerNode(t, current)
	// Release from the least-populated held node; among equals, the one
	// farthest from the rest of the allocation, then the highest index —
	// the surviving cores end packed and mutually close.
	bestNode, bestHeld, bestCost := numa.NodeID(-1), 0, 0
	for n := 0; n < t.NodeCount; n++ {
		if held[n] == 0 {
			continue
		}
		cost := hopSum(t, numa.NodeID(n), current)
		better := bestNode < 0 || held[n] < bestHeld ||
			(held[n] == bestHeld && cost > bestCost) ||
			(held[n] == bestHeld && cost == bestCost && numa.NodeID(n) > bestNode)
		if better {
			bestNode, bestHeld, bestCost = numa.NodeID(n), held[n], cost
		}
	}
	return highestHeldCore(t, bestNode, current)
}

// HopMin grows and shrinks core by core on pure hop distance: the next
// grant is the free core whose node is closest to everything already
// held (regardless of how full its node is), and the next victim is the
// held core farthest from the rest. On uniform-distance machines it
// degenerates to lowest-index selection; on rings, ladders and chiplet
// fabrics it is the transfer policy that keeps a tenant's cores mutually
// close.
type HopMin struct{}

// Name implements Placement.
func (HopMin) Name() string { return "hop-min" }

// Next implements Placement.
func (HopMin) Next(t *numa.Topology, current, occupied sched.CPUSet) (numa.CoreID, bool) {
	bestCore, bestCost := numa.CoreID(-1), 0
	for n := 0; n < t.NodeCount; n++ {
		c, free := lowestFreeCore(t, numa.NodeID(n), occupied)
		if !free {
			continue
		}
		cost := hopSum(t, numa.NodeID(n), current)
		if bestCore < 0 || cost < bestCost {
			bestCore, bestCost = c, cost
		}
	}
	if bestCore < 0 {
		return 0, false
	}
	return bestCore, true
}

// Victim implements Placement.
func (HopMin) Victim(t *numa.Topology, current sched.CPUSet) (numa.CoreID, bool) {
	if current.Count() <= 1 {
		return 0, false
	}
	bestCore, bestCost := numa.CoreID(-1), -1
	for _, c := range current.Cores() {
		cost := hopSum(t, t.NodeOf(c), current.Remove(c))
		// Strict > keeps the earliest core among equals; within a node
		// later cores see the same cost, so ties release the highest
		// index of the worst node by scanning descending instead.
		if cost > bestCost {
			bestCore, bestCost = c, cost
		}
	}
	// Prefer the highest-index held core on the chosen core's node, so
	// node-internal release order matches the other policies.
	return highestHeldCore(t, t.NodeOf(bestCore), current)
}

// Scatter is the topology-blind baseline: it round-robins grants across
// nodes in index order (like the sparse mode) without consulting the hop
// matrix, and releases from the fullest node. Its gap to NodeFill and
// HopMin on a given machine measures what hop-aware placement is worth
// there.
type Scatter struct{}

// Name implements Placement.
func (Scatter) Name() string { return "scatter" }

// Next implements Placement.
func (Scatter) Next(t *numa.Topology, current, occupied sched.CPUSet) (numa.CoreID, bool) {
	held := heldPerNode(t, current)
	bestNode, bestHeld := numa.NodeID(-1), 0
	for n := 0; n < t.NodeCount; n++ {
		if _, free := lowestFreeCore(t, numa.NodeID(n), occupied); !free {
			continue
		}
		if bestNode < 0 || held[n] < bestHeld {
			bestNode, bestHeld = numa.NodeID(n), held[n]
		}
	}
	if bestNode < 0 {
		return 0, false
	}
	return lowestFreeCore(t, bestNode, occupied)
}

// Victim implements Placement.
func (Scatter) Victim(t *numa.Topology, current sched.CPUSet) (numa.CoreID, bool) {
	if current.Count() <= 1 {
		return 0, false
	}
	held := heldPerNode(t, current)
	bestNode, bestHeld := numa.NodeID(-1), 0
	for n := 0; n < t.NodeCount; n++ {
		if held[n] > bestHeld {
			bestNode, bestHeld = numa.NodeID(n), held[n]
		}
	}
	return highestHeldCore(t, bestNode, current)
}

// Placements lists the built-in policies in presentation order.
func Placements() []Placement {
	return []Placement{NodeFill{}, HopMin{}, Scatter{}}
}

// placedAllocator adapts a Placement to the Allocator interface the
// mechanism consumes.
type placedAllocator struct {
	topo *numa.Topology
	p    Placement
}

// NewPlaced adapts a topology-aware Placement into an allocation mode.
func NewPlaced(t *numa.Topology, p Placement) Allocator {
	return &placedAllocator{topo: t, p: p}
}

func (a *placedAllocator) Name() string { return a.p.Name() }

func (a *placedAllocator) Next(current, occupied sched.CPUSet) (numa.CoreID, bool) {
	return a.p.Next(a.topo, current, occupied)
}

func (a *placedAllocator) Victim(current sched.CPUSet) (numa.CoreID, bool) {
	return a.p.Victim(a.topo, current)
}
