package numa

import (
	"math/rand"
	"reflect"
	"testing"
)

// accessrange_test.go pins the bulk-charging contract: AccessRange must be
// indistinguishable from the per-block Access loop it replaces — same
// cycles, same interconnect bytes, same counter and cache evolution — for
// arbitrary interleavings of reads, writes, partial blocks and cores.

// rangeBytes mirrors the per-block byte split a caller performs when
// charging rows [startByte, endByte) of a region.
func blockLoopAccess(m *Machine, core CoreID, r RangeAccess) Cost {
	var total Cost
	for i := 0; i < r.Blocks; i++ {
		bytes := m.Topology().BlockBytes
		switch {
		case i == 0 && r.FirstBytes != 0:
			bytes = r.FirstBytes
		case i == r.Blocks-1 && i != 0 && r.LastBytes != 0:
			bytes = r.LastBytes
		}
		c := m.Access(core, Access{Block: r.Start + BlockID(i), Bytes: bytes, Write: r.Write, PID: r.PID})
		total.Cycles += c.Cycles
		total.HTBytes += c.HTBytes
	}
	return total
}

func randomRanges(seed int64, blocks int) []RangeAccess {
	rng := rand.New(rand.NewSource(seed))
	out := make([]RangeAccess, 600)
	for i := range out {
		start := rng.Intn(blocks)
		n := 1 + rng.Intn(blocks-start)
		if n > 40 {
			n = 40
		}
		ra := RangeAccess{
			Start:  BlockID(start),
			Blocks: n,
			Write:  rng.Intn(6) == 0,
			PID:    1 + rng.Intn(3),
		}
		if rng.Intn(2) == 0 {
			ra.FirstBytes = 1 + rng.Intn(16*1024)
		}
		if rng.Intn(2) == 0 {
			ra.LastBytes = 1 + rng.Intn(16*1024)
		}
		out[i] = ra
	}
	return out
}

// TestAccessRangeMatchesAccessLoop replays an identical random access
// history on two machines — one charged block by block, one in bulk — and
// requires bit-identical costs and counters, interleaved with AdvanceTime
// so the congestion factors move.
func TestAccessRangeMatchesAccessLoop(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		topo := Opteron8387()
		loopM := NewMachine(topo)
		bulkM := NewMachine(topo)
		const blocks = 256
		loopM.Memory().Alloc(blocks)
		bulkM.Memory().Alloc(blocks)

		quantum := topo.SecondsToCycles(50e-6)
		cores := topo.TotalCores()
		for i, ra := range randomRanges(seed, blocks) {
			core := CoreID(i % cores)
			a := blockLoopAccess(loopM, core, ra)
			b := bulkM.AccessRange(core, ra)
			if a != b {
				t.Fatalf("seed %d op %d (%+v): cost diverged: loop %+v, bulk %+v", seed, i, ra, a, b)
			}
			if i%3 == 0 {
				loopM.AdvanceTime(quantum)
				bulkM.AdvanceTime(quantum)
			}
		}
		if !reflect.DeepEqual(loopM.Snapshot(), bulkM.Snapshot()) {
			t.Fatalf("seed %d: counters diverged between loop and bulk charging", seed)
		}
		if loopM.HTCongestion() != bulkM.HTCongestion() {
			t.Fatalf("seed %d: congestion factors diverged", seed)
		}
	}
}

// TestAdvanceTimeIdleMatchesLoop checks the idle fast-forward against the
// tick-by-tick loop, starting from a congested state so the factor decay
// and the refresh cadence are both exercised, across quantum/window
// alignments: quanta that divide the refresh window, one that does not,
// and one longer than the window. Snapshot does not carry the window
// phase, so after the skip both machines take the same over-capacity
// traffic burst and are stepped through more than one full window: a
// phase that is one quantum off refreshes on a different step and the
// congestion factors part.
func TestAdvanceTimeIdleMatchesLoop(t *testing.T) {
	burst := func(m *Machine) {
		for i := 0; i < 4000; i++ {
			m.Access(CoreID(15), Access{Block: BlockID(i), Bytes: m.Topology().BlockBytes, PID: 1})
		}
	}
	window := Opteron8387().SecondsToCycles(1e-3)
	congest := func(m *Machine) {
		// Drive remote traffic past the interconnect capacity of several
		// whole refresh windows to push the congestion factors above 1.
		m.Memory().AllocOn(4096, 0, 1)
		for round := 0; round < 8; round++ {
			burst(m)
			m.AdvanceTime(window)
		}
	}
	for _, quantum := range []uint64{1000, 140000, 900001, 2800001} {
		loopM := NewMachine(Opteron8387())
		bulkM := NewMachine(Opteron8387())
		congest(loopM)
		congest(bulkM)
		if loopM.HTCongestion() <= 1 {
			t.Fatal("test setup failed to congest the interconnect")
		}
		const n = 500000
		for i := 0; i < n; i++ {
			loopM.AdvanceTime(quantum)
		}
		bulkM.AdvanceTimeIdle(quantum, n)
		if loopM.Now() != bulkM.Now() {
			t.Fatalf("quantum %d: Now diverged: loop %d, bulk %d", quantum, loopM.Now(), bulkM.Now())
		}
		if loopM.HTCongestion() != 1 || bulkM.HTCongestion() != 1 {
			t.Fatalf("quantum %d: congestion after the idle stretch: loop %v, bulk %v, want 1",
				quantum, loopM.HTCongestion(), bulkM.HTCongestion())
		}
		burst(loopM)
		burst(bulkM)
		for step := uint64(0); step <= window/quantum+1; step++ {
			loopM.AdvanceTime(quantum)
			bulkM.AdvanceTime(quantum)
			if loopM.HTCongestion() != bulkM.HTCongestion() {
				t.Fatalf("quantum %d: window phase diverged: %d quanta after the skip congestion is loop %v, bulk %v",
					quantum, step+1, loopM.HTCongestion(), bulkM.HTCongestion())
			}
		}
		if loopM.HTCongestion() <= 1 {
			t.Fatalf("quantum %d: the post-skip burst did not move the congestion factor", quantum)
		}
		if !reflect.DeepEqual(loopM.Snapshot(), bulkM.Snapshot()) {
			t.Fatalf("quantum %d: post-skip state diverged", quantum)
		}
	}
}

// TestLRUSteadyStateZeroAlloc guards the arena-backed cache: steady-state
// hit/miss/evict churn must not allocate.
func TestLRUSteadyStateZeroAlloc(t *testing.T) {
	c := newLRUCache(32)
	for b := 0; b < 64; b++ {
		c.Touch(BlockID(b))
	}
	b := 0
	allocs := testing.AllocsPerRun(500, func() {
		for i := 0; i < 64; i++ {
			c.Touch(BlockID(b % 96))
			b++
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state LRU churn allocated %v times per run, want 0", allocs)
	}
}

// TestWriteRangeZeroAlloc guards invalidateRemote: a write-heavy
// AccessRange reads each written block's directory row and drops the
// block from the caches it names, recycling rows through the directory's
// own free list, so charging it allocates nothing once the caches, the
// rows and the cost memo exist.
func TestWriteRangeZeroAlloc(t *testing.T) {
	topo := Opteron8387()
	m := NewMachine(topo)
	const blocks = 64
	region := m.Memory().AllocOn(blocks, NodeID(topo.NodeCount-1), 1)
	write := RangeAccess{Start: region.Block(0), Blocks: blocks, Write: true, PID: 1}
	read := RangeAccess{Start: region.Block(0), Blocks: blocks, PID: 1}
	// Readers on every node first, so the writes have copies to invalidate.
	warm := func() {
		for n := 0; n < topo.NodeCount; n++ {
			m.AccessRange(topo.CoreOf(NodeID(n), 1), read)
		}
	}
	warm()
	m.AccessRange(0, write)
	before := m.Snapshot().Nodes[0].Invalidations
	allocs := testing.AllocsPerRun(50, func() {
		warm()
		m.AccessRange(0, write)
	})
	if allocs != 0 {
		t.Fatalf("read+write ranges allocated %v times per run, want 0", allocs)
	}
	if after := m.Snapshot().Nodes[0].Invalidations; after == before {
		t.Fatal("the write ranges invalidated nothing; the guard did not reach invalidateRemote's remote walk")
	}
}

// TestAccessAndDropZeroAlloc: single-block accesses from every core and
// affinity drops — which empty a whole cache and recycle the rows of the
// blocks nobody else holds — allocate nothing in steady state either.
func TestAccessAndDropZeroAlloc(t *testing.T) {
	topo := Opteron8387()
	m := NewMachine(topo)
	const blocks = 128
	region := m.Memory().Alloc(blocks)
	cycle := func() {
		for i := 0; i < blocks; i++ {
			m.Access(CoreID(i%topo.TotalCores()), Access{Block: region.Block(i), Bytes: 100, Write: i%5 == 0, PID: 1})
		}
		m.DropCoreAffinity(3)
		m.DropCoreAffinity(7)
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("accesses and affinity drops allocated %v times per run, want 0", allocs)
	}
	if m.caches.private[0].Len() == 0 || m.caches.private[3].Len() != 0 {
		t.Fatal("the cycle left core 0 empty or core 3 filled; the drops did not run as intended")
	}
}

// TestCounterWindowAdvanceZeroAlloc: the window is the allocation-free
// replacement for the snapshot triple.
func TestCounterWindowAdvanceZeroAlloc(t *testing.T) {
	m := NewMachine(Opteron8387())
	w := m.NewCounterWindow()
	var sink uint64
	allocs := testing.AllocsPerRun(500, func() {
		m.ChargeBusy(3, 10)
		m.AdvanceTime(100)
		sink += w.Advance().Cores[3].BusyCycles
	})
	if allocs != 0 || sink == 0 {
		t.Fatalf("Advance allocated %v times per call (sink %d), want 0", allocs, sink)
	}
}
