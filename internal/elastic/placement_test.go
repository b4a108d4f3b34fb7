package elastic

import (
	"testing"

	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// placement_test.go covers the topology-aware allocation modes on the
// zoo shapes where hop distance actually differentiates nodes: the ring
// (diagonal = 2 hops) and the chiplet machine (cross-package up to 3).

// grow allocates n cores through the allocator on an otherwise empty
// machine and returns the resulting set.
func grow(a Allocator, n int) sched.CPUSet {
	set := sched.CPUSet(0)
	for i := 0; i < n; i++ {
		c, ok := a.Next(set, set)
		if !ok {
			break
		}
		set = set.Add(c)
	}
	return set
}

// placementModes returns the three topology-aware modes on t, by name.
func placementModes(t *numa.Topology) map[string]Allocator {
	return map[string]Allocator{"node-fill": NewNodeFill(t), "hop-min": NewHopMin(t), "scatter": NewScatter(t)}
}

func TestNodeFillPacksBeforeOpening(t *testing.T) {
	topo := numa.FourSocketRing()
	set := grow(NewNodeFill(topo), topo.CoresPerNode+1)
	// The first node must be completely full before a second opens.
	nodes := set.NodesTouched(topo)
	if len(nodes) != 2 {
		t.Fatalf("nodes touched = %v, want exactly 2", nodes)
	}
	if got := set.OnNode(topo, nodes[0]).Count(); got != topo.CoresPerNode {
		t.Errorf("first node holds %d cores, want %d", got, topo.CoresPerNode)
	}
}

// TestNodeFillOpensNearestNode is the property the index-ordered dense
// mode lacks: on a ring, after filling node 0, the next node must be an
// adjacent one (1 hop), never the diagonal (2 hops).
func TestNodeFillOpensNearestNode(t *testing.T) {
	topo := numa.FourSocketRing()
	set := grow(NewNodeFill(topo), topo.CoresPerNode+1)
	nodes := set.NodesTouched(topo)
	second := nodes[1]
	if second == 0 {
		second = nodes[0]
	}
	if topo.Hops(0, second) != 1 {
		t.Errorf("second node %d is %d hops from node 0, want 1", second, topo.Hops(0, second))
	}

	// On the chiplet machine the second node must stay on-package and
	// substrate-adjacent (1 hop), not the package diagonal or the other
	// package.
	epyc := numa.EPYCLike()
	set = grow(NewNodeFill(epyc), epyc.CoresPerNode+1)
	nodes = set.NodesTouched(epyc)
	if len(nodes) != 2 || epyc.Hops(nodes[0], nodes[1]) != 1 {
		t.Errorf("EPYC second node %v, want a 1-hop neighbour of the first", nodes)
	}
}

func TestNodeFillVictimRetreatsFromEmptiestNode(t *testing.T) {
	topo := numa.FourSocketRing()
	// Node 0 full, node 1 holds one core.
	set := sched.NewCPUSet(0, 1, 2, 3, topo.CoreOf(1, 0))
	v, ok := NewNodeFill(topo).Victim(set)
	if !ok {
		t.Fatal("no victim")
	}
	if topo.NodeOf(v) != 1 {
		t.Errorf("victim %d on node %d, want the lone core on node 1", v, topo.NodeOf(v))
	}
}

func TestHopMinPrefersCloseCores(t *testing.T) {
	topo := numa.FourSocketRing()
	hm := NewHopMin(topo)
	// Hold one core on node 0 and one on node 1; nodes 2 and 3 are free.
	// Node 3 is 1 hop from node 0 and 2 from node 1 (sum 3); node 2 is
	// 2+1 (sum 3); but adding on the held nodes themselves costs 1 and 1.
	set := sched.NewCPUSet(topo.CoreOf(0, 0), topo.CoreOf(1, 0))
	c, ok := hm.Next(set, set)
	if !ok {
		t.Fatal("no core")
	}
	if n := topo.NodeOf(c); n != 0 && n != 1 {
		t.Errorf("grant on node %d, want a held node (hop sum 1)", n)
	}

	// With node 0 fully occupied by someone else and one core held on
	// node 1, the grant must skip the occupied cores and avoid the
	// diagonal node 3 (2 hops away).
	neighbour := sched.NewCPUSet(0, 1, 2, 3)
	cur := sched.NewCPUSet(topo.CoreOf(1, 0))
	c, ok = hm.Next(cur, neighbour.Union(cur))
	if !ok {
		t.Fatal("no core")
	}
	if neighbour.Contains(c) {
		t.Fatalf("granted occupied core %d", c)
	}
	if n := topo.NodeOf(c); n != 1 {
		t.Errorf("grant on node %d, want node 1 (own node still free)", n)
	}
}

func TestHopMinVictimDropsFarthestCore(t *testing.T) {
	topo := numa.FourSocketRing()
	// Two cores on node 0, one on the diagonal node 2: the diagonal core
	// is 2+2 hops from the rest, each node-0 core at most 0+2.
	set := sched.NewCPUSet(topo.CoreOf(0, 0), topo.CoreOf(0, 1), topo.CoreOf(2, 0))
	v, ok := NewHopMin(topo).Victim(set)
	if !ok {
		t.Fatal("no victim")
	}
	if topo.NodeOf(v) != 2 {
		t.Errorf("victim on node %d, want the diagonal node 2", topo.NodeOf(v))
	}
}

func TestScatterSpreadsAcrossNodes(t *testing.T) {
	topo := numa.EightSocketTwisted()
	set := grow(NewScatter(topo), topo.NodeCount)
	if got := len(set.NodesTouched(topo)); got != topo.NodeCount {
		t.Errorf("%d cores touched %d nodes, want one core per node", set.Count(), got)
	}
}

func TestPlacementsExhaustAndStop(t *testing.T) {
	topo := numa.TwoSocket()
	full := sched.FullSet(topo)
	for name, a := range placementModes(topo) {
		if _, ok := a.Next(full, full); ok {
			t.Errorf("%s granted a core on a full machine", name)
		}
		if _, ok := a.Victim(sched.NewCPUSet(0)); ok {
			t.Errorf("%s released the last core", name)
		}
		if set := grow(a, topo.TotalCores()); set != full {
			t.Errorf("%s grew to %v, want the full machine", name, set)
		}
	}
}

func TestPlacementsDeterministic(t *testing.T) {
	topo := numa.EPYCLike()
	for name, a := range placementModes(topo) {
		if x, y := grow(a, 13), grow(a, 13); x != y {
			t.Errorf("%s: identical grows diverged (%v vs %v)", name, x, y)
		}
	}
}
