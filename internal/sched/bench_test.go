package sched

import (
	"testing"

	"elasticore/internal/numa"
)

// BenchmarkWakeAllHerd times the broadcast wake-up at PlacementOS scale:
// 4096 parked threads of one PID over 16 cores. One op is a WakeAll plus
// the Tick in which every woken thread runs for nothing and parks again.
func BenchmarkWakeAllHerd(b *testing.B) { benchHerd(b) }

// BenchmarkWakeAllHerdGated is the same herd behind a shut Gate, the
// production shape: the Tick re-parks every woken thread without running
// it.
func BenchmarkWakeAllHerdGated(b *testing.B) { benchHerd(b, Gated(&Gate{})) }

func benchHerd(b *testing.B, opts ...SpawnOption) {
	const herd = 4096
	_, cycle := warmHerd(herd, opts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/herd, "ns/woken-thread")
}

// BenchmarkBlockWakeOne times a single targeted Wake and the Tick that
// parks the thread again among 256 parked siblings — the shape behind
// the benchmark ledger's sched.block_wake_ns.
func BenchmarkBlockWakeOne(b *testing.B) {
	s := New(numa.NewMachine(numa.Opteron8387()), Config{})
	threads := spawnHerd(s, 1, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Wake(threads[i*37%len(threads)])
		s.Tick()
	}
}
