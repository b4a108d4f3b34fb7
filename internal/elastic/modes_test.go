package elastic

import (
	"slices"
	"testing"
	"testing/quick"

	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

func topo() *numa.Topology { return numa.Opteron8387() }

func TestDenseOrderFillsNodeFirst(t *testing.T) {
	// Figure 12 (b): dense iterates over j within i.
	order := denseOrder(topo())
	want := []numa.CoreID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("denseOrder = %v, want %v", order, want)
		}
	}
}

func TestSparseOrderRotatesNodes(t *testing.T) {
	// Figure 12 (a): sparse iterates over i within j.
	order := sparseOrder(topo())
	want := []numa.CoreID{0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("sparseOrder = %v, want %v", order, want)
		}
	}
}

func TestSequenceAllocatorNextSkipsAllocated(t *testing.T) {
	a := NewDense(topo())
	set := sched.NewCPUSet(0, 1)
	c, ok := a.Next(set, set)
	if !ok || c != 2 {
		t.Errorf("Next = %d,%v, want 2,true", c, ok)
	}
	// Cores a neighbour occupies are skipped like the caller's own.
	if c, ok := a.Next(set, set.Union(sched.NewCPUSet(2, 3))); !ok || c != 4 {
		t.Errorf("Next past occupied 2-3 = %d,%v, want 4,true", c, ok)
	}
	full := sched.FullSet(topo())
	if _, ok := a.Next(full, full); ok {
		t.Error("Next on full set should fail")
	}
}

func TestSequenceAllocatorVictimReverse(t *testing.T) {
	a := NewDense(topo())
	set := sched.NewCPUSet(0, 1, 5)
	c, ok := a.Victim(set)
	if !ok || c != 5 {
		t.Errorf("Victim = %d,%v, want 5,true (last in dense order)", c, ok)
	}
	if _, ok := a.Victim(sched.NewCPUSet(0)); ok {
		t.Error("Victim must refuse to release the last core")
	}
}

func TestSparseAllocatorSpreads(t *testing.T) {
	a := NewSparse(topo())
	tp := topo()
	set := sched.CPUSet(0)
	seenNodes := map[numa.NodeID]bool{}
	for i := 0; i < tp.NodeCount; i++ {
		c, ok := a.Next(set, set)
		if !ok {
			t.Fatal("Next failed")
		}
		set = set.Add(c)
		seenNodes[tp.NodeOf(c)] = true
	}
	if len(seenNodes) != tp.NodeCount {
		t.Errorf("first %d sparse allocations touched %d nodes, want all", tp.NodeCount, len(seenNodes))
	}
}

func TestAdaptiveAllocatesAtHottestNode(t *testing.T) {
	tp := topo()
	pages := []int{0, 50, 10, 5}
	a := NewAdaptive(tp, func() []int { return pages })
	c, ok := a.Next(0, 0)
	if !ok || tp.NodeOf(c) != 1 {
		t.Errorf("Next = core %d (node %d), want a node-1 core", c, tp.NodeOf(c))
	}
	// When node 1 is fully allocated, the next-hottest node (2) follows.
	set := sched.NewCPUSet(tp.Cores(1)...)
	c, ok = a.Next(set, set)
	if !ok || tp.NodeOf(c) != 2 {
		t.Errorf("Next with node 1 full = node %d, want 2", tp.NodeOf(c))
	}
}

func TestAdaptiveReleasesAtColdestNode(t *testing.T) {
	tp := topo()
	pages := []int{100, 50, 10, 5}
	a := NewAdaptive(tp, func() []int { return pages })
	set := sched.NewCPUSet(0, 4, 8, 12) // one core per node
	c, ok := a.Victim(set)
	if !ok || tp.NodeOf(c) != 3 {
		t.Errorf("Victim = core %d (node %d), want node 3 (fewest pages)", c, tp.NodeOf(c))
	}
	// If the coldest node has no allocated core, the next-coldest gives up
	// a core.
	set = sched.NewCPUSet(0, 4, 8)
	c, ok = a.Victim(set)
	if !ok || tp.NodeOf(c) != 2 {
		t.Errorf("Victim = node %d, want 2", tp.NodeOf(c))
	}
	if _, ok := a.Victim(sched.NewCPUSet(0)); ok {
		t.Error("Victim must keep at least one core")
	}
}

func TestAdaptiveTracksResidencyChanges(t *testing.T) {
	tp := topo()
	pages := []int{100, 0, 0, 0}
	a := NewAdaptive(tp, func() []int { return pages })
	if c, _ := a.Next(0, 0); tp.NodeOf(c) != 0 {
		t.Fatalf("initial Next on node %d, want 0", tp.NodeOf(c))
	}
	pages = []int{0, 0, 0, 100} // address space moved
	if c, _ := a.Next(0, 0); tp.NodeOf(c) != 3 {
		t.Errorf("Next after shift on node %d, want 3", tp.NodeOf(c))
	}
}

// The adaptive mode's node ranking is the paper's priority queue: most
// resident node on top, ties to the lower node id.

// ranking ranks four nodes by pages through the adaptive allocator.
func ranking(pages []int) []numa.NodeID {
	a := NewAdaptive(numa.FourSocketRing(), func() []int { return pages }).(*adaptiveAllocator)
	return a.rank()
}

// TestQueueTopBottom: the top node holds the most pages, the bottom node
// the fewest.
func TestQueueTopBottom(t *testing.T) {
	ranked := ranking([]int{5, 100, 20, 1})
	if top, bottom := ranked[0], ranked[len(ranked)-1]; top != 1 || bottom != 3 {
		t.Errorf("top %d, bottom %d; want node 1 (100 pages) and node 3 (1 page)", top, bottom)
	}
}

func TestQueueRankedOrder(t *testing.T) {
	got := ranking([]int{7, 3, 9, 3})
	want := []numa.NodeID{2, 0, 1, 3} // ties (1,3) break toward the lower id
	if !slices.Equal(got, want) {
		t.Fatalf("ranking = %v, want %v", got, want)
	}
	if got := ranking([]int{5, 5, 5, 5}); !slices.Equal(got, []numa.NodeID{0, 1, 2, 3}) {
		t.Errorf("all-tied ranking = %v, want node order", got)
	}
}

// TestQueueUpdateReorders: each decision re-ranks from a fresh residency
// vector alone, whatever the previous one ranked.
func TestQueueUpdateReorders(t *testing.T) {
	pages := []int{10, 20, 30, 40}
	a := NewAdaptive(numa.FourSocketRing(), func() []int { return pages }).(*adaptiveAllocator)
	if got := a.rank(); !slices.Equal(got, []numa.NodeID{3, 2, 1, 0}) {
		t.Fatalf("ranking = %v, want 3 2 1 0", got)
	}
	pages = []int{100, 20, 30, 40}
	if got := a.rank(); !slices.Equal(got, []numa.NodeID{0, 3, 2, 1}) {
		t.Errorf("ranking after update = %v, want 0 3 2 1", got)
	}
	pages = []int{0, 0, 0, 0}
	if got := a.rank(); !slices.Equal(got, []numa.NodeID{0, 1, 2, 3}) {
		t.Errorf("ranking of a zero vector = %v, want node order", got)
	}
}

func TestQueueRepeatedUpdatesConsistent(t *testing.T) {
	// Property: after any sequence of readings, the ranking is a
	// permutation of all nodes, descending by pages, ties ascending by id.
	f := func(updates [][4]uint8) bool {
		pages := make([]int, 4)
		a := NewAdaptive(numa.FourSocketRing(), func() []int { return pages }).(*adaptiveAllocator)
		for _, u := range updates {
			for n := range pages {
				pages[n] = int(u[n])
			}
			ranked := a.rank()
			seen := map[numa.NodeID]bool{}
			for i, n := range ranked {
				if seen[n] {
					return false
				}
				seen[n] = true
				if i > 0 {
					p, q := pages[ranked[i-1]], pages[n]
					if p < q || p == q && ranked[i-1] > n {
						return false
					}
				}
			}
			if len(seen) != 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
