package workload

import (
	"runtime"
	"testing"

	"elasticore/internal/tpch"
)

// Budgets of TestMixedStreamAllocBudget: the measured cost of the 22-query
// stream when pinned (1 967 296 bytes in 3 646 objects; 2 155 856 in
// 16 861 while every partition task was nine heap objects of its own;
// 2 836 176 in 18 408 before join and group tables over a dense key range
// became a bitmap and an array; 3 116 488 in 18 726 before candidate lists
// went dense and hash tables were sized once) plus 2 % headroom. Lower them
// when a change makes the stream cheaper; raising one needs a reason in
// CHANGES.md.
const (
	mixedStreamByteBudget   = 2_006_000
	mixedStreamObjectBudget = 3_720
)

// TestMixedStreamAllocBudget is the byte gate of the db layer inside the
// root module: a fresh SF 0.002 rig runs each of the 22 TPC-H queries
// once, one at a time (a cold buffer pool, the worst case for it), and the
// heap bytes and objects that takes must stay within the pinned budgets.
// The simulation is deterministic and single-threaded, so the counts
// repeat to within a few runtime-internal objects.
func TestMixedStreamAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	r, err := NewRig(Options{SF: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 1; n <= tpch.QueryCount; n++ {
		q := r.Engine.Submit(tpch.Build(n, uint64(n)))
		for ticks := 0; !q.Done(); ticks++ {
			if ticks > 5_000_000 {
				t.Fatalf("Q%d did not finish", n)
			}
			r.Tick()
		}
		r.Engine.Release(q)
	}
	runtime.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("22 queries: %d bytes in %d objects", bytes, objects)
	if bytes > mixedStreamByteBudget {
		t.Errorf("the 22-query stream allocated %d bytes, budget %d", bytes, mixedStreamByteBudget)
	}
	if objects > mixedStreamObjectBudget {
		t.Errorf("the 22-query stream allocated %d objects, budget %d", objects, mixedStreamObjectBudget)
	}
}
