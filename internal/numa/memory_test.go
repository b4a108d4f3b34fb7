package numa

import (
	"testing"
	"testing/quick"
)

func TestAllocRegionsDisjoint(t *testing.T) {
	m := NewMemory(Opteron8387())
	a := m.Alloc(10)
	b := m.Alloc(5)
	for i := 0; i < b.Blocks; i++ {
		if a.Contains(b.Block(i)) {
			t.Fatalf("regions overlap at block %d", b.Block(i))
		}
	}
}

func TestFirstTouchHomesOnLocalNode(t *testing.T) {
	topo := Opteron8387()
	m := NewMemory(topo)
	r := m.Alloc(4)
	res := m.touch(r.Block(0), 2, 42)
	if !res.firstTouch {
		t.Error("first access should be a first touch")
	}
	if res.home != 2 {
		t.Errorf("home = %d, want 2 (node-local policy)", res.home)
	}
	if m.Home(r.Block(0)) != 2 {
		t.Errorf("Home = %d after touch, want 2", m.Home(r.Block(0)))
	}
}

func TestMinorFaultSituations(t *testing.T) {
	// Section II-B.1: minor faults occur at (1) data first touch and
	// (2) the first remote access to already-touched data.
	topo := Opteron8387()
	m := NewMemory(topo)
	r := m.Alloc(1)
	ppb := uint64(topo.PagesPerBlock())

	m.touch(r.Block(0), 0, 1) // first touch on node 0
	if got := m.MinorFaults()[0]; got != ppb {
		t.Errorf("faults[0] after first touch = %d, want %d", got, ppb)
	}

	res := m.touch(r.Block(0), 3, 2) // first remote access from node 3
	if !res.remoteFault {
		t.Error("first remote access should fault")
	}
	if res.home != 0 {
		t.Errorf("remote access home = %d, want 0", res.home)
	}
	if got := m.MinorFaults()[3]; got != ppb {
		t.Errorf("faults[3] after remote access = %d, want %d", got, ppb)
	}

	res = m.touch(r.Block(0), 3, 2) // repeated remote access: mapped, no fault
	if res.remoteFault || res.firstTouch {
		t.Error("repeated access should not fault")
	}
	if got := m.MinorFaults()[3]; got != ppb {
		t.Errorf("faults[3] after repeat = %d, want %d (unchanged)", got, ppb)
	}
}

func TestResidencyTracksOwnerPID(t *testing.T) {
	topo := Opteron8387()
	m := NewMemory(topo)
	r := m.Alloc(6)
	for i := 0; i < 4; i++ {
		m.touch(r.Block(i), 1, 77)
	}
	for i := 4; i < 6; i++ {
		m.touch(r.Block(i), 3, 77)
	}
	res := m.Residency([]int{77})
	if res[1] != 4 || res[3] != 2 {
		t.Errorf("residency = %v, want node1=4 node3=2", res)
	}
	if other := m.Residency([]int{99}); other[1] != 0 {
		t.Errorf("unrelated pid residency = %v, want zeros", other)
	}
}

func TestAllocOnPlacesEagerly(t *testing.T) {
	topo := Opteron8387()
	m := NewMemory(topo)
	r := m.AllocOn(3, 2, 9)
	for i := 0; i < 3; i++ {
		if m.Home(r.Block(i)) != 2 {
			t.Errorf("block %d home = %d, want 2", i, m.Home(r.Block(i)))
		}
	}
	if got := m.Residency([]int{9})[2]; got != 3 {
		t.Errorf("residency = %d, want 3", got)
	}
	// Eager placement is not a fault (no demand paging modelled for it).
	if got := m.MinorFaults()[2]; got != 0 {
		t.Errorf("faults = %d, want 0 for eager placement", got)
	}
}

func TestHomedBlocksConservation(t *testing.T) {
	// Property: the toucher's residency sums to the number of touched,
	// live blocks regardless of the access pattern.
	topo := Opteron8387()
	f := func(seed uint32) bool {
		m := NewMemory(topo)
		r := m.Alloc(32)
		rng := seed
		touched := make(map[BlockID]bool)
		for i := 0; i < 100; i++ {
			rng = rng*1664525 + 1013904223
			b := r.Block(int(rng % 32))
			node := NodeID((rng >> 8) % uint32(topo.NodeCount))
			m.touch(b, node, 1)
			touched[b] = true
		}
		total := 0
		for _, c := range m.Residency([]int{1}) {
			total += c
		}
		return total == len(touched)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHomeStableAfterFirstTouch(t *testing.T) {
	// Property: the home of a block never changes after first touch, no
	// matter which nodes access it afterwards.
	topo := Opteron8387()
	f := func(firstNode, nextNodes uint8) bool {
		m := NewMemory(topo)
		r := m.Alloc(1)
		first := NodeID(int(firstNode) % topo.NodeCount)
		m.touch(r.Block(0), first, 1)
		for k := 0; k < 4; k++ {
			n := NodeID((int(nextNodes) + k) % topo.NodeCount)
			if res := m.touch(r.Block(0), n, 2); res.home != first {
				return false
			}
		}
		return m.Home(r.Block(0)) == first
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocPanicsOnNonPositive(t *testing.T) {
	m := NewMemory(Opteron8387())
	defer func() {
		if recover() == nil {
			t.Error("Alloc(0) did not panic")
		}
	}()
	m.Alloc(0)
}
