package numa

import "testing"

// BenchmarkAccessRange replays a charging stream shaped like a bursty
// single-rig run's: most calls read one block of a few hot column regions,
// homed on every node, from cores of several nodes; some read two or three
// blocks; every fourth call writes a fresh one-block region, as a query
// materialising a small intermediate does. One op is one AccessRange call
// (and, for the writes, the Alloc before it); ns/block divides the time by
// the blocks charged.
func BenchmarkAccessRange(b *testing.B) {
	topo := Opteron8387()
	m := NewMachine(topo)
	mem := m.Memory()
	var hot []Region
	for n := 0; n < topo.NodeCount; n++ {
		hot = append(hot, mem.AllocOn(96, NodeID(n), 1))
	}
	cores := []CoreID{0, 1, 5, 6, 10, 15}
	// A fixed cycle of reads, drawn from a linear congruential stream.
	reads := make([]RangeAccess, 1024)
	x := uint32(1)
	next := func(n int) int {
		x = x*1664525 + 1013904223
		return int(x>>8) % n
	}
	for i := range reads {
		r := hot[next(len(hot))]
		ra := RangeAccess{Blocks: 1, PID: 1}
		if next(8) == 0 {
			ra.Blocks = 2 + next(2)
		}
		ra.Start = r.Block(next(r.Blocks - ra.Blocks + 1))
		if next(2) == 0 {
			ra.FirstBytes = 1 + next(topo.BlockBytes)
		}
		reads[i] = ra
	}
	blocks := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core := cores[i%len(cores)]
		if i%4 == 3 {
			fresh := mem.Alloc(1)
			m.AccessRange(core, RangeAccess{Start: fresh.Start, Blocks: 1, Write: true, PID: 2})
			blocks++
			continue
		}
		ra := reads[i%len(reads)]
		m.AccessRange(core, ra)
		blocks += ra.Blocks
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(blocks, 1)), "ns/block")
}
