package workload

import (
	"runtime"
	"testing"

	"elasticore/internal/arrivals"
	"elasticore/internal/db"
	"elasticore/internal/elastic"
	"elasticore/internal/obs"
	"elasticore/internal/tpch"
)

// Budgets of TestMixedStreamAllocBudget: the measured cost of the 22-query
// stream when pinned plus 2 % headroom — 2 178 objects now that a query's
// fork reuses exited worker and thread records, names its threads only for
// a lit bus, and a lowered plan holds its ops (3 465 while a plan was one
// []OpSpec and a closure a stage, and a single-task stage one funcTask;
// 3 646 while the 22 plans were lists of capturing closures; 16 861 while
// every partition task was nine heap objects of its own; 18 408 before join
// and group tables over a dense key range became a bitmap and an array;
// 18 726 before candidate lists went dense and hash tables were sized
// once), and 1 967 296 bytes as of the closure plans (2 155 856, 2 836 176
// and 3 116 488 at the same three points before). The byte budget was not
// re-pinned when plans became data: 241 OpSpecs weigh 34 KB more than the
// closures did, the stream measured 1 999 344 bytes and still fit; it is
// re-pinned at 1 930 784 bytes with the recycled fork, and at 1 884 552
// bytes in 2 106 objects (2 179 before) now that an intermediate goes back
// to the pool at its last reader and a hash build's per-fragment operator
// is a stack value. Lower a budget when a change makes the stream cheaper;
// raising one needs a reason in CHANGES.md.
const (
	mixedStreamByteBudget   = 1_922_300
	mixedStreamObjectBudget = 2_148
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

// Budgets of TestMixedInFlightAllocBudget: the measured cost of the 22
// queries in flight at once plus 2 % headroom — 2 415 392 bytes in 3 236
// objects. While every intermediate lived until its query's release the
// queries took 3 726 152 bytes in 5 008 objects: nothing came back to the
// pool before the last query finished.
const (
	mixedInFlightByteBudget   = 2_463_700
	mixedInFlightObjectBudget = 3_300
)

// TestMixedInFlightAllocBudget is the concurrent twin of
// TestMixedStreamAllocBudget: a fresh SF 0.002 rig runs the 22 TPC-H
// queries all at once, so the buffer pool starts cold and refills only from
// intermediates that die while the others are in flight — mixed-closed's
// regime in miniature. The heap bytes and objects that takes must stay
// within the pinned budgets.
func TestMixedInFlightAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	r, err := NewRig(Options{SF: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	qs := make([]*db.Query, 0, tpch.QueryCount)
	for n := 1; n <= tpch.QueryCount; n++ {
		qs = append(qs, r.Engine.Submit(tpch.Build(n, uint64(n))))
	}
	for _, q := range qs {
		for ticks := 0; !q.Done(); ticks++ {
			if ticks > 5_000_000 {
				t.Fatalf("%s did not finish", q.Plan.Name)
			}
			r.Tick()
		}
	}
	for _, q := range qs {
		r.Engine.Release(q)
	}
	runtime.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("22 queries in flight: %d bytes in %d objects", bytes, objects)
	if bytes > mixedInFlightByteBudget {
		t.Errorf("the 22 queries in flight allocated %d bytes, budget %d", bytes, mixedInFlightByteBudget)
	}
	if objects > mixedInFlightObjectBudget {
		t.Errorf("the 22 queries in flight allocated %d objects, budget %d", objects, mixedInFlightObjectBudget)
	}
}

// openIdlePhase runs the first 40 arrivals of a Q6 MMPP process (over
// within 0.4 s) and one last arrival at `seconds` — so two phases differ
// only in how long they idle — on a fresh SF 0.002 rig with a lit bus and a
// 1 ms probe, and returns the rig, the heap objects and bytes the phase
// allocated, and how many quanta carried a run slice.
func openIdlePhase(t *testing.T, seconds float64) (r *Rig, objects, bytes uint64, busyQuanta int) {
	t.Helper()
	bus := obs.NewBus(0)
	r, err := NewRig(Options{SF: 0.002, Seed: 1, Mode: ModeAdaptive, Strategy: elastic.HTIMCStrategy{}, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	r.EnableProbe(r.Machine.Topology().SecondsToCycles(1e-3))
	last := ^uint64(0)
	bus.Subscribe(obs.KindRunSlice, func(e obs.Event) {
		if q := e.Start / r.Sched.Quantum(); q != last {
			last = q
			busyQuanta++
		}
	})
	var times fixedArrivals
	for mmpp := arrivals.NewMMPP(5, 400, 0.05, 0.1, 3); len(times) < 40; {
		t, _ := mmpp.Next() // an MMPP never ends
		times = append(times, t)
	}
	times = append(times, seconds)
	d := &OpenDriver{
		Rig:         r,
		Process:     &times,
		MaxInFlight: 16,
		QueueCap:    128,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := d.RunSameQuery(tpch.BuildQ6)
	runtime.ReadMemStats(&after)
	if res.Completed != 41 || res.ElapsedSeconds < seconds {
		t.Fatalf("phase completed %d of 41 queries in %v s, want all of them and a tail to %v s", res.Completed, res.ElapsedSeconds, seconds)
	}
	return r, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, busyQuanta
}

// Budgets of one idle simulated second of an open-loop phase. Its 4 000
// control periods settle at the mechanism's quiet fixed point: they
// evaluate the net no time at all (measured: 0; the few evaluations that
// reach the fixed point are the same in every phase) and extend one run of
// the mechanism's timeline. Its 1 000 probe samples settle at the probe's
// quiet fixed point and extend one run of the probe's timeline. Nothing is
// left: 0 objects and 0 bytes in 48 of 55 runs, −40 … +48 bytes in six,
// and 2 objects of 2 600 bytes in one run beside another package's tests
// — the runtime's, not the phase's (1–2 objects and 290 872 bytes while
// each probe sample appended to the timeline, 1 658 992 while each period
// appended a 56-byte event to the mechanism's too). A tenth of nothing is
// no slack, so the byte budget is 8 KiB: three such stray runtime blips,
// and a ninth of what one appended 72-byte sample a millisecond costs.
const (
	openIdleObjectsPerSecond     = 40
	openIdleBytesPerSecond       = 8 << 10
	openIdleEvaluationsPerSecond = 4
)

// TestOpenIdlePhaseCost is the gate on what idle simulated time costs the
// host in an open-loop phase. Two phases with the same burst and idle
// tails two seconds apart differ in heap objects and bytes by next to
// nothing, and in net evaluations by the few a phase takes to reach the
// quiet fixed point; and the scheduler simulates (Tick) only
// quanta that have work — within 1.3x of the quanta that ran a slice, the
// slack being quanta whose runnable threads woke to nothing — however long
// the phase idles.
func TestOpenIdlePhaseCost(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	shortRig, shortObjects, shortBytes, _ := openIdlePhase(t, 1)
	r, objects, bytes, busy := openIdlePhase(t, 3)
	perSecond := func(long, short uint64) int64 { return (int64(long) - int64(short)) / 2 }
	evaluations := func(r *Rig) uint64 { return r.Mech.TokenFlows - r.Mech.Replayed }
	objectsPS, bytesPS := perSecond(objects, shortObjects), perSecond(bytes, shortBytes)
	evaluationsPS := perSecond(evaluations(r), evaluations(shortRig))
	ticked := r.Sched.Ticked()
	t.Logf("per idle second: %d objects, %d bytes, %d net evaluations; Tick ran %d times for %d busy quanta of %d",
		objectsPS, bytesPS, evaluationsPS, ticked, busy, r.Sched.Stats().TicksRun)
	if objectsPS > openIdleObjectsPerSecond {
		t.Errorf("an idle second allocated %d objects, budget %d", objectsPS, openIdleObjectsPerSecond)
	}
	if bytesPS > openIdleBytesPerSecond {
		t.Errorf("an idle second allocated %d bytes, budget %d", bytesPS, openIdleBytesPerSecond)
	}
	if evaluationsPS > openIdleEvaluationsPerSecond {
		t.Errorf("an idle second evaluated the net %d times, budget %d", evaluationsPS, openIdleEvaluationsPerSecond)
	}
	if busy == 0 || float64(ticked) >= 1.3*float64(busy) {
		t.Errorf("Scheduler.Tick ran %d times for %d busy quanta, want fewer than 1.3x", ticked, busy)
	}
}
