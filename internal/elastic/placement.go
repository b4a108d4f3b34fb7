package elastic

import (
	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// placement.go holds the topology-aware allocation modes. The paper's
// dense/sparse orders are fixed index sequences derived from the
// testbed's core numbering; on machines whose interconnect is not a fully
// linked square (a ring, a twisted ladder, a chiplet package) the
// lowest-index node is not in general the cheapest one. These modes rank
// candidate cores by the topology's hop matrix instead, relative to the
// caller's current set, while skipping the occupied cores other tenants
// hold. Every pick is deterministic: equal inputs yield equal picks.

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
	for j := 0; j < t.CoresPerNode; j++ {
		if c := t.CoreOf(n, j); !occupied.Contains(c) {
			return c, true
		}
	}
	return 0, false
}

// highestHeldCore returns node n's highest-index core inside current.
func highestHeldCore(t *numa.Topology, n numa.NodeID, current sched.CPUSet) (numa.CoreID, bool) {
	for j := t.CoresPerNode - 1; j >= 0; j-- {
		if c := t.CoreOf(n, j); current.Contains(c) {
			return c, true
		}
	}
	return 0, false
}

// nodeFill packs cores socket by socket, like the dense mode, but picks
// each *new* socket by hop distance instead of index order: it keeps
// filling the node where the caller already holds cores, and when every
// held node is full it opens the free node closest (smallest total hop
// distance) to the cores already held. Shrinking retreats from the
// emptiest held node first, so the surviving allocation stays packed.
type nodeFill struct{ t *numa.Topology }

// NewNodeFill returns the node-fill allocation mode on t.
func NewNodeFill(t *numa.Topology) Allocator { return nodeFill{t} }

func (a nodeFill) Next(current, occupied sched.CPUSet) (numa.CoreID, bool) {
	t := a.t
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

func (a nodeFill) Victim(current sched.CPUSet) (numa.CoreID, bool) {
	if current.Count() <= 1 {
		return 0, false
	}
	t := a.t
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

// hopMin grows and shrinks core by core on pure hop distance: the next
// grant is the free core whose node is closest to everything already
// held (regardless of how full its node is), and the next victim is the
// held core farthest from the rest. On uniform-distance machines it
// degenerates to lowest-index selection; on rings, ladders and chiplet
// fabrics it is the transfer policy that keeps a tenant's cores mutually
// close.
type hopMin struct{ t *numa.Topology }

// NewHopMin returns the hop-min allocation mode on t.
func NewHopMin(t *numa.Topology) Allocator { return hopMin{t} }

func (a hopMin) Next(current, occupied sched.CPUSet) (numa.CoreID, bool) {
	t := a.t
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

func (a hopMin) Victim(current sched.CPUSet) (numa.CoreID, bool) {
	if current.Count() <= 1 {
		return 0, false
	}
	t := a.t
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
	// node-internal release order matches the other modes.
	return highestHeldCore(t, t.NodeOf(bestCore), current)
}

// scatter is the topology-blind baseline: it round-robins grants across
// nodes in index order (like the sparse mode) without consulting the hop
// matrix, and releases from the fullest node. Its gap to node-fill and
// hop-min on a given machine measures what hop-aware placement is worth
// there.
type scatter struct{ t *numa.Topology }

// NewScatter returns the scatter allocation mode on t.
func NewScatter(t *numa.Topology) Allocator { return scatter{t} }

func (a scatter) Next(current, occupied sched.CPUSet) (numa.CoreID, bool) {
	t := a.t
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

func (a scatter) Victim(current sched.CPUSet) (numa.CoreID, bool) {
	if current.Count() <= 1 {
		return 0, false
	}
	t := a.t
	held := heldPerNode(t, current)
	bestNode, bestHeld := numa.NodeID(-1), 0
	for n := 0; n < t.NodeCount; n++ {
		if held[n] > bestHeld {
			bestNode, bestHeld = numa.NodeID(n), held[n]
		}
	}
	return highestHeldCore(t, bestNode, current)
}
