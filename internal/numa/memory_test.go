package numa

import (
	"math/bits"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
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

// touch reads one line of the block from the first core of node: the
// first-touch policy as AccessRange applies it.
func touch(m *Machine, b BlockID, node NodeID, pid int) {
	m.Access(m.Topology().CoreOf(node, 0), Access{Block: b, Bytes: 1, PID: pid})
}

func TestFirstTouchHomesOnLocalNode(t *testing.T) {
	topo := Opteron8387()
	m := NewMachine(topo)
	r := m.Memory().Alloc(4)
	if m.Memory().Home(r.Block(0)) != NoNode {
		t.Fatalf("Home = %d before any touch, want NoNode", m.Memory().Home(r.Block(0)))
	}
	touch(m, r.Block(0), 2, 42)
	if got, want := m.Memory().MinorFaults()[2], uint64(topo.PagesPerBlock()); got != want {
		t.Errorf("faults[2] = %d, want %d: the first access should be a first touch", got, want)
	}
	if m.Memory().Home(r.Block(0)) != 2 {
		t.Errorf("Home = %d after touch, want 2 (node-local policy)", m.Memory().Home(r.Block(0)))
	}
	if res := m.Memory().Residency([]int{42}); res[2] != 1 {
		t.Errorf("residency = %v, want one block on node 2", res)
	}
}

func TestMinorFaultSituations(t *testing.T) {
	// Section II-B.1: minor faults occur at (1) data first touch and
	// (2) the first remote access to already-touched data.
	topo := Opteron8387()
	m := NewMachine(topo)
	mem := m.Memory()
	r := mem.Alloc(1)
	ppb := uint64(topo.PagesPerBlock())

	touch(m, r.Block(0), 0, 1) // first touch on node 0
	if got := mem.MinorFaults()[0]; got != ppb {
		t.Errorf("faults[0] after first touch = %d, want %d", got, ppb)
	}

	touch(m, r.Block(0), 3, 2) // first remote access from node 3
	if got := mem.MinorFaults()[3]; got != ppb {
		t.Errorf("faults[3] after remote access = %d, want %d: the first remote access should fault", got, ppb)
	}
	if mem.Home(r.Block(0)) != 0 {
		t.Errorf("remote access home = %d, want 0", mem.Home(r.Block(0)))
	}
	if res := mem.Residency([]int{2}); res[3] != 0 {
		t.Errorf("remote access gave pid 2 residency %v, want none", res)
	}

	touch(m, r.Block(0), 3, 2) // repeated remote access: mapped, no fault
	if got := mem.MinorFaults(); got[0] != ppb || got[3] != ppb {
		t.Errorf("faults after repeat = %v, want %d on nodes 0 and 3 (unchanged)", got, ppb)
	}
}

func TestResidencyTracksOwnerPID(t *testing.T) {
	topo := Opteron8387()
	m := NewMachine(topo)
	r := m.Memory().Alloc(6)
	for i := 0; i < 4; i++ {
		touch(m, r.Block(i), 1, 77)
	}
	for i := 4; i < 6; i++ {
		touch(m, r.Block(i), 3, 77)
	}
	res := m.Memory().Residency([]int{77})
	if res[1] != 4 || res[3] != 2 {
		t.Errorf("residency = %v, want node1=4 node3=2", res)
	}
	if other := m.Memory().Residency([]int{99}); other[1] != 0 {
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
		m := NewMachine(topo)
		r := m.Memory().Alloc(32)
		rng := seed
		touched := make(map[BlockID]bool)
		for i := 0; i < 100; i++ {
			rng = rng*1664525 + 1013904223
			b := r.Block(int(rng % 32))
			node := NodeID((rng >> 8) % uint32(topo.NodeCount))
			touch(m, b, node, 1)
			touched[b] = true
		}
		total := 0
		for _, c := range m.Memory().Residency([]int{1}) {
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
		m := NewMachine(topo)
		r := m.Memory().Alloc(1)
		first := NodeID(int(firstNode) % topo.NodeCount)
		touch(m, r.Block(0), first, 1)
		for k := 0; k < 4; k++ {
			touch(m, r.Block(0), NodeID((int(nextNodes)+k)%topo.NodeCount), 2)
			if m.Memory().Home(r.Block(0)) != first {
				return false
			}
		}
		return true
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

// TestBlockTableGrowsByPages guards the paged block table: allocating
// moves the high-water mark and appends a zeroed page when it crosses into
// one, so a million 1-block regions allocate one page per pageBlocks blocks
// plus the page index's doublings — in objects and in bytes, with no copy
// of a block's state — and homing allocated blocks allocates nothing once
// the pid has a residency row.
func TestBlockTableGrowsByPages(t *testing.T) {
	const blocks = 1_000_000
	pages := (blocks + pageBlocks - 1) / pageBlocks
	indexGrowths := bits.Len(uint(pages)) + 1
	pageBytes := uint64(pageBlocks) * uint64(unsafe.Sizeof(blockInfo{}))

	mems := []*Memory{NewMemory(Opteron8387()), NewMemory(Opteron8387())}
	run := 0
	allocs := testing.AllocsPerRun(1, func() {
		m := mems[run%len(mems)]
		run++
		for range blocks {
			m.Alloc(1)
		}
	})
	if limit := float64(pages + indexGrowths); allocs > limit {
		t.Errorf("%d 1-block regions allocated %v objects, want at most %v (%d pages + %d index growths)",
			blocks, allocs, limit, pages, indexGrowths)
	}

	m := NewMemory(Opteron8387())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range blocks {
		m.Alloc(1)
	}
	runtime.ReadMemStats(&after)
	// The index's doublings sum to less than twice its final capacity.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(pages)*pageBytes+2*8*uint64(2*pages); got > limit {
		t.Errorf("%d 1-block regions allocated %d bytes, want at most %d: %d pages of %d bytes and the index",
			blocks, got, limit, pages, pageBytes)
	}
	if got := m.TotalBlocks(); got != blocks {
		t.Fatalf("TotalBlocks = %d, want %d", got, blocks)
	}

	// Regions that straddle pages, homed once each.
	regions := make([]Region, 11)
	for i := range regions {
		regions[i] = m.Alloc(pageBlocks/2 + 7)
	}
	m.HomeRegionOn(m.Alloc(1), 2, 9) // pid 9's residency row
	run = 0
	if allocs := testing.AllocsPerRun(len(regions)-1, func() {
		m.HomeRegionOn(regions[run], NodeID(run%4), 9)
		run++
	}); allocs != 0 {
		t.Errorf("HomeRegionOn allocated %v times per region, want 0", allocs)
	}
	want := 1
	for _, r := range regions {
		want += r.Blocks
	}
	total := 0
	for _, c := range m.Residency([]int{9}) {
		total += c
	}
	if total != want {
		t.Errorf("pid 9 has %d homed blocks, want %d", total, want)
	}
}
