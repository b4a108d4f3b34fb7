package numa

import (
	"testing"
	"testing/quick"
)

func TestAccessLocalVsRemoteCost(t *testing.T) {
	topo := Opteron8387()
	m := NewMachine(topo)
	r := m.Memory().Alloc(2)

	// Local: core 0 (node 0) first-touches block 0.
	local := m.Access(0, Access{Block: r.Block(0), Bytes: topo.BlockBytes, PID: 1})
	// Remote: core 0 touches a block homed on node 3 first.
	m.Access(topo.CoreOf(3, 0), Access{Block: r.Block(1), Bytes: topo.BlockBytes, PID: 1})
	remote := m.Access(0, Access{Block: r.Block(1), Bytes: topo.BlockBytes, PID: 1})

	if remote.Cycles <= local.Cycles {
		t.Errorf("remote access (%d cycles) should cost more than local (%d)", remote.Cycles, local.Cycles)
	}
	if remote.HTBytes == 0 {
		t.Error("remote access generated no interconnect traffic")
	}
	if local.HTBytes != 0 {
		t.Errorf("local access generated %d HT bytes, want 0", local.HTBytes)
	}
}

func TestAccessCountersWiring(t *testing.T) {
	topo := Opteron8387()
	m := NewMachine(topo)
	r := m.Memory().Alloc(1)

	m.Access(topo.CoreOf(2, 0), Access{Block: r.Block(0), Bytes: topo.BlockBytes, PID: 7})
	snap := m.Snapshot()
	lines := uint64(topo.LinesPerBlock())
	if snap.Nodes[2].L3Misses != lines {
		t.Errorf("L3Misses[2] = %d, want %d", snap.Nodes[2].L3Misses, lines)
	}
	if snap.Nodes[2].IMCBytes != uint64(topo.BlockBytes) {
		t.Errorf("IMCBytes[2] = %d, want %d", snap.Nodes[2].IMCBytes, topo.BlockBytes)
	}
	if snap.Nodes[2].MinorFaults == 0 {
		t.Error("first touch produced no minor faults")
	}

	// Remote read: requester node 0, home node 2.
	m.Access(0, Access{Block: r.Block(0), Bytes: topo.BlockBytes, PID: 7})
	snap = m.Snapshot()
	if snap.Nodes[0].HTBytesOut == 0 {
		t.Error("requester HTBytesOut not counted")
	}
	if snap.Nodes[2].HTBytesIn == 0 {
		t.Error("responder HTBytesIn not counted")
	}
	if snap.Nodes[2].IMCBytes != 2*uint64(topo.BlockBytes) {
		t.Errorf("home IMCBytes = %d, want %d (serves remote miss)", snap.Nodes[2].IMCBytes, 2*topo.BlockBytes)
	}
}

func TestRepeatAccessHitsCache(t *testing.T) {
	topo := Opteron8387()
	m := NewMachine(topo)
	r := m.Memory().Alloc(1)
	m.Access(5, Access{Block: r.Block(0), Bytes: topo.BlockBytes})
	before := m.Snapshot()
	c := m.Access(5, Access{Block: r.Block(0), Bytes: topo.BlockBytes})
	after := m.Snapshot()
	if after.Nodes[topo.NodeOf(5)].L3Misses != before.Nodes[topo.NodeOf(5)].L3Misses {
		t.Error("cached access should not add L3 misses")
	}
	if c.HTBytes != 0 {
		t.Error("cached access should not touch the interconnect")
	}
}

func TestWriteInvalidatesRemoteReaders(t *testing.T) {
	topo := Opteron8387()
	m := NewMachine(topo)
	r := m.Memory().Alloc(1)
	// Reader on node 1 caches the block (also homes it there).
	m.Access(topo.CoreOf(1, 0), Access{Block: r.Block(0), Bytes: 4096})
	// Reader on node 2 caches it too.
	m.Access(topo.CoreOf(2, 0), Access{Block: r.Block(0), Bytes: 4096})
	// Writer on node 0 invalidates both copies.
	m.Access(0, Access{Block: r.Block(0), Bytes: 4096, Write: true})
	snap := m.Snapshot()
	if snap.Nodes[0].Invalidations != 2 {
		t.Errorf("Invalidations = %d, want 2", snap.Nodes[0].Invalidations)
	}
	// Reader on node 1 must now re-fetch (miss).
	before := m.Snapshot()
	m.Access(topo.CoreOf(1, 0), Access{Block: r.Block(0), Bytes: 4096})
	after := m.Snapshot()
	if after.Nodes[1].L3Misses == before.Nodes[1].L3Misses {
		t.Error("reader after invalidation should miss")
	}
}

func TestCongestionStretchesRemoteAccesses(t *testing.T) {
	topo := Opteron8387()
	m := NewMachine(topo)
	// Home lots of blocks on node 3, then hammer them from node 0 with an
	// artificially tiny HT bandwidth so demand exceeds capacity.
	topoSlow := *topo
	topoSlow.HTBandwidth = 1e6 // 1 MB/s
	slow := NewMachine(&topoSlow)
	nBlocks := 64
	rs := slow.Memory().Alloc(nBlocks)
	for i := 0; i < nBlocks; i++ {
		slow.Access(topoSlow.CoreOf(3, 0), Access{Block: rs.Block(i), Bytes: topoSlow.BlockBytes})
	}
	first := slow.Access(0, Access{Block: rs.Block(0), Bytes: topoSlow.BlockBytes})
	// Generate demand and advance time so the congestion window closes.
	for round := 0; round < 4; round++ {
		for i := 0; i < nBlocks; i++ {
			slow.Access(0, Access{Block: rs.Block(i), Bytes: topoSlow.BlockBytes})
		}
		slow.AdvanceTime(topoSlow.SecondsToCycles(2e-3))
	}
	if slow.HTCongestion() <= 1 {
		t.Fatalf("HTCongestion = %g, want > 1 under overload", slow.HTCongestion())
	}
	// The same remote access is now more expensive. Evict from caches by
	// touching a different set first.
	spill := slow.Memory().Alloc(topoSlow.L3Bytes/topoSlow.BlockBytes + 8)
	for i := 0; i < spill.Blocks; i++ {
		slow.Access(0, Access{Block: spill.Block(i), Bytes: topoSlow.BlockBytes})
	}
	later := slow.Access(0, Access{Block: rs.Block(0), Bytes: topoSlow.BlockBytes})
	if later.Cycles <= first.Cycles {
		t.Errorf("congested remote access (%d cycles) should exceed uncongested (%d)", later.Cycles, first.Cycles)
	}
	_ = m
}

func TestSnapshotSubWindow(t *testing.T) {
	topo := Opteron8387()
	m := NewMachine(topo)
	r := m.Memory().Alloc(4)
	m.Access(0, Access{Block: r.Block(0), Bytes: topo.BlockBytes})
	s1 := m.Snapshot()
	m.Access(0, Access{Block: r.Block(1), Bytes: topo.BlockBytes})
	m.AdvanceTime(1000)
	s2 := m.Snapshot()
	d := s2.Sub(s1)
	if d.Now != 1000 {
		t.Errorf("window Now = %d, want 1000", d.Now)
	}
	if d.Nodes[0].L3Misses != uint64(topo.LinesPerBlock()) {
		t.Errorf("window misses = %d, want %d", d.Nodes[0].L3Misses, topo.LinesPerBlock())
	}
}

func TestCPULoadAccounting(t *testing.T) {
	topo := Opteron8387()
	m := NewMachine(topo)
	m.AdvanceTime(1000)
	m.ChargeBusy(0, 750)
	snap := m.Snapshot()
	for c, cc := range snap.Cores {
		if cc.BusyCycles+cc.IdleCycles != 1000 {
			t.Errorf("core %d: busy %d + idle %d, want the clock's 1000", c, cc.BusyCycles, cc.IdleCycles)
		}
	}
	if got := snap.CPULoad([]CoreID{0}); got != 75 {
		t.Errorf("CPULoad(core0) = %g, want 75", got)
	}
	if got := snap.CPULoad([]CoreID{0, 1}); got != 37.5 {
		t.Errorf("CPULoad(core0,1) = %g, want 37.5", got)
	}
	// Every core idles whatever of the clock it was not busy for.
	if got := snap.CPULoad(nil); got != 4.6875 {
		t.Errorf("CPULoad(all) = %g, want 4.6875", got)
	}
}

func TestHTIMCRatio(t *testing.T) {
	c := Counters{Nodes: []NodeCounters{
		{HTBytesOut: 100, IMCBytes: 400},
		{HTBytesOut: 100, IMCBytes: 100},
	}}
	if got := c.HTIMCRatio(); got != 0.4 {
		t.Errorf("HTIMCRatio = %g, want 0.4", got)
	}
	empty := Counters{Nodes: []NodeCounters{{}}}
	if got := empty.HTIMCRatio(); got != 0 {
		t.Errorf("empty ratio = %g, want 0", got)
	}
}

func TestAccessConservation(t *testing.T) {
	// Property: total HT requester bytes == total HT responder bytes for
	// pure reads (no invalidation messages).
	topo := Opteron8387()
	f := func(seed uint32, n uint8) bool {
		m := NewMachine(topo)
		r := m.Memory().Alloc(16)
		rng := seed
		for i := 0; i < int(n); i++ {
			rng = rng*1664525 + 1013904223
			core := CoreID(rng % uint32(topo.TotalCores()))
			m.Access(core, Access{Block: r.Block(int(rng>>8) % 16), Bytes: topo.BlockBytes})
		}
		snap := m.Snapshot()
		var out, in uint64
		for _, nc := range snap.Nodes {
			out += nc.HTBytesOut
			in += nc.HTBytesIn
		}
		return out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAccessPanicsOnOversized(t *testing.T) {
	topo := Opteron8387()
	m := NewMachine(topo)
	r := m.Memory().Alloc(1)
	defer func() {
		if recover() == nil {
			t.Error("oversized access did not panic")
		}
	}()
	m.Access(0, Access{Block: r.Block(0), Bytes: topo.BlockBytes + 1})
}
