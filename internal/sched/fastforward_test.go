package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"elasticore/internal/numa"
)

// fastforward_test.go verifies the event-driven scheduler against the
// reference loop of ref_test.go: both must produce bit-identical Stats,
// queue states and machine counters for arbitrary workloads, and the hot
// loop must not allocate.

// chaosWork is a deterministic pseudo-random runner: it works, blocks or
// finishes following its own rng stream, and charges real memory accesses
// so the cache and congestion models are exercised too.
type chaosWork struct {
	rng    *rand.Rand
	region numa.Region
	rounds int
}

func (w *chaosWork) Run(ctx *ExecContext, budget uint64) (uint64, bool, bool) {
	w.rounds--
	if w.rounds <= 0 {
		return budget / 2, false, true
	}
	cost := uint64(0)
	for i := 0; i < 4; i++ {
		blk := w.region.Block(w.rng.Intn(w.region.Blocks))
		cost += ctx.AccessRange(numa.RangeAccess{Start: blk, Blocks: 1, FirstBytes: 64, Write: w.rng.Intn(8) == 0})
	}
	switch w.rng.Intn(4) {
	case 0:
		return cost, true, false // block; woken by the driver below
	case 1:
		return budget, false, false // burn the whole quantum
	default:
		if cost > budget {
			cost = budget
		}
		return cost, false, false
	}
}

// chaosArrivalTicks scripts an open-loop arrival pattern: a seeded
// pseudo-random, sorted list of ticks at which fresh threads enter the
// system mid-run (geometric gaps approximate a discretized Poisson
// stream). Staggered spawns hit the fast path's surplus accounting in a
// way the all-up-front workload never does.
func chaosArrivalTicks(seed int64, n, horizon int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x09E11007))
	ticks := make([]int, 0, n)
	at := 0
	for len(ticks) < n {
		at += 1 + rng.Intn(2*horizon/n)
		if at >= horizon {
			break
		}
		ticks = append(ticks, at)
	}
	return ticks
}

// runChaos drives one scheduler through a scripted random workload —
// 24 threads present from the start plus an open-loop wave arriving at
// scripted ticks — and returns its observable end state, including how
// many threads completed and each arrival's queue wait (spawn-to-exit
// time minus its own runtime is scheduler-dependent, so lifespans are
// compared directly).
func runChaos(ref bool, seed int64) (Stats, []int, numa.Counters, int, []uint64) {
	machine := numa.NewMachine(numa.Opteron8387())
	s := New(machine, Config{})
	d := driveOf(s, ref)
	rng := rand.New(rand.NewSource(seed))
	region := machine.Memory().Alloc(64)

	var threads []*Thread
	for i := 0; i < 24; i++ {
		w := &chaosWork{rng: rand.New(rand.NewSource(seed + int64(i))), region: region, rounds: 30 + rng.Intn(40)}
		threads = append(threads, s.Spawn(1+i%3, "chaos", w))
	}
	arrivalTicks := chaosArrivalTicks(seed, 16, 400)
	arrived := 0
	var arrivals []*Thread
	for tick := 0; tick < 400; tick++ {
		for arrived < len(arrivalTicks) && arrivalTicks[arrived] <= tick {
			w := &chaosWork{rng: rand.New(rand.NewSource(seed + 1000 + int64(arrived))), region: region, rounds: 10 + rng.Intn(20)}
			th := s.Spawn(1+arrived%3, "arrival", w)
			threads = append(threads, th)
			arrivals = append(arrivals, th)
			arrived++
		}
		d.tick()
		// Periodically wake blocked threads, like an engine would.
		if tick%7 == 0 {
			d.wakeAll(1 + tick%3)
		}
		if tick%13 == 0 {
			for _, th := range threads {
				if th.State() == Blocked {
					s.Wake(th)
					break
				}
			}
		}
	}
	// Drain the rest through RunUntil, exercising its fast-forward once
	// every thread is gone.
	d.runUntil(func() bool { return false }, 200*s.Quantum())
	completed := 0
	for _, th := range threads {
		if _, exited := th.Lifespan(); exited > 0 {
			completed++
		}
	}
	// The open-loop arrivals' spawn/exit stamps are the scheduler-level
	// analogue of per-query queue wait + service time.
	waits := make([]uint64, 0, 2*len(arrivals))
	for _, th := range arrivals {
		spawned, exited := th.Lifespan()
		waits = append(waits, spawned, exited)
	}
	return s.Stats(), s.QueueLengths(), machine.Snapshot(), completed, waits
}

// TestFastForwardMatchesNaive is the scheduler-level equivalence property:
// the same scripted workload — including the open-loop arrival wave —
// under the naive reference loop of ref_test.go and the event-driven
// scheduler ends in bit-identical scheduler stats, queue lengths, hardware
// counters, completion counts and per-arrival lifespans.
func TestFastForwardMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		nStats, nQueues, nSnap, nDone, nWaits := runChaos(true, seed)
		fStats, fQueues, fSnap, fDone, fWaits := runChaos(false, seed)
		if nStats != fStats {
			t.Errorf("seed %d: stats diverged\nref:   %+v\nfast:  %+v", seed, nStats, fStats)
		}
		if !reflect.DeepEqual(nQueues, fQueues) {
			t.Errorf("seed %d: queue lengths diverged\nref:   %v\nfast:  %v", seed, nQueues, fQueues)
		}
		if !reflect.DeepEqual(nSnap, fSnap) {
			t.Errorf("seed %d: machine counters diverged\nref:   %+v\nfast:  %+v", seed, nSnap, fSnap)
		}
		if nDone != fDone {
			t.Errorf("seed %d: completions diverged: ref %d, fast %d", seed, nDone, fDone)
		}
		if nDone == 0 {
			t.Errorf("seed %d: chaos run completed nothing", seed)
		}
		if !reflect.DeepEqual(nWaits, fWaits) {
			t.Errorf("seed %d: arrival lifespans diverged\nref:   %v\nfast:  %v", seed, nWaits, fWaits)
		}
	}
}

// chaosBarrier is what a stretch-driven chaos run exposes at one barrier.
type chaosBarrier struct {
	now   uint64
	idle  bool
	stats Stats
	ht    float64
	snap  numa.Counters
}

// runChaosStretches drives the chaos workload the way the fleet engine
// drives a machine: threads are spawned and woken only at barriers, and
// between barriers the scheduler advances a whole stretch of 1..48 quanta
// on its own. A few short-lived, often-blocking threads make most
// stretches go idle partway through and leave whole stretches with
// nothing runnable at all; it returns every barrier's observables and how
// many stretches began busy and ended idle.
func runChaosStretches(ref bool, seed int64) (barriers []chaosBarrier, wentIdle int) {
	machine := numa.NewMachine(numa.Opteron8387())
	s := New(machine, Config{})
	d := driveOf(s, ref)
	rng := rand.New(rand.NewSource(seed))
	region := machine.Memory().Alloc(64)

	var threads []*Thread
	spawn := func(n int) {
		for i := 0; i < n; i++ {
			id := int64(len(threads))
			w := &chaosWork{rng: rand.New(rand.NewSource(seed + id)), region: region, rounds: 6 + rng.Intn(30)}
			threads = append(threads, s.Spawn(1+int(id)%3, "chaos", w))
		}
	}
	spawn(6)
	for b := 0; b < 300; b++ {
		switch rng.Intn(5) {
		case 0:
			spawn(1 + rng.Intn(3))
		case 1:
			d.wakeAll(1 + rng.Intn(3))
		case 2:
			for _, th := range threads {
				if th.State() == Blocked {
					s.Wake(th)
					break
				}
			}
		}
		busy := !s.Idle()
		d.advance(1 + rng.Intn(48))
		if busy && s.Idle() {
			wentIdle++
		}
		barriers = append(barriers, chaosBarrier{machine.Now(), s.Idle(), s.Stats(), machine.HTCongestion(), machine.Snapshot()})
	}
	return barriers, wentIdle
}

// TestAdvanceMatchesRefTicks: Advance(n) lands on exactly the state n
// reference ticks reach — stats, counters, clock and congestion factor —
// at every barrier of a run whose stretches start busy, start idle, and
// go idle midway.
func TestAdvanceMatchesRefTicks(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		want, _ := runChaosStretches(true, seed)
		got, wentIdle := runChaosStretches(false, seed)
		idle := 0
		for b := range want {
			w, g := want[b], got[b]
			if w.now != g.now || w.idle != g.idle || w.stats != g.stats || w.ht != g.ht {
				t.Fatalf("seed %d barrier %d diverged\nref:     now %d idle %v ht %v %+v\nadvance: now %d idle %v ht %v %+v",
					seed, b, w.now, w.idle, w.ht, w.stats, g.now, g.idle, g.ht, g.stats)
			}
			if !reflect.DeepEqual(w.snap, g.snap) {
				t.Fatalf("seed %d barrier %d: machine counters diverged", seed, b)
			}
			if b > 0 && want[b-1].idle && w.idle {
				idle++
			}
		}
		if wentIdle < 10 || idle < 10 {
			t.Errorf("seed %d: %d stretches went idle midway and %d were idle throughout — the script no longer exercises the skip",
				seed, wentIdle, idle)
		}
	}
}

// TestRunUntilIdleFastForward pins the bulk idle skip: with nothing
// runnable, RunUntil must land on exactly the state refRunUntil reaches
// tick by tick.
func TestRunUntilIdleFastForward(t *testing.T) {
	build := func() (*Scheduler, *numa.Machine) {
		machine := numa.NewMachine(numa.Opteron8387())
		s := New(machine, Config{})
		// One thread that blocks immediately and is never woken.
		s.Spawn(1, "sleeper", RunnerFunc(func(_ *ExecContext, budget uint64) (uint64, bool, bool) {
			return budget / 8, true, false
		}))
		s.Tick()
		return s, machine
	}
	sn, mn := build()
	sf, mf := build()
	limit := 12345 * sn.Quantum() / 10 // deliberately not quantum-aligned
	if refRunUntil(sn, func() bool { return false }, limit) {
		t.Fatal("reference RunUntil satisfied an unsatisfiable predicate")
	}
	if sf.RunUntil(func() bool { return false }, limit) {
		t.Fatal("fast RunUntil satisfied an unsatisfiable predicate")
	}
	if mn.Now() != mf.Now() {
		t.Errorf("Now diverged: ref %d, fast %d", mn.Now(), mf.Now())
	}
	if sn.Stats() != sf.Stats() {
		t.Errorf("stats diverged: ref %+v, fast %+v", sn.Stats(), sf.Stats())
	}
	if !reflect.DeepEqual(mn.Snapshot(), mf.Snapshot()) {
		t.Error("idle counters diverged between reference and fast RunUntil")
	}
}

// TestTickSteadyStateZeroAlloc is the allocation regression: a
// steady-state run slice must not allocate. One pinned
// spinner per core keeps every queue busy through Tick, runCore and the
// periodic balance pass.
func TestTickSteadyStateZeroAlloc(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	s := New(machine, Config{})
	topo := machine.Topology()
	for c := 0; c < topo.TotalCores(); c++ {
		s.Spawn(1, "spin", RunnerFunc(func(_ *ExecContext, budget uint64) (uint64, bool, bool) {
			return budget, false, false
		}), Pinned(NewCPUSet(numa.CoreID(c))))
	}
	for i := 0; i < 32; i++ {
		s.Tick() // warm the queues, blocked sets and congestion windows
	}
	allocs := testing.AllocsPerRun(200, func() { s.Tick() })
	if allocs != 0 {
		t.Fatalf("steady-state Tick allocated %v times per run, want 0", allocs)
	}
}

// TestWakeAllSteadyStateZeroAlloc guards the blocked-set double buffering:
// block/wake cycles must not allocate once warm.
func TestWakeAllSteadyStateZeroAlloc(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	s := New(machine, Config{})
	for i := 0; i < 8; i++ {
		s.Spawn(1, "blocky", RunnerFunc(func(_ *ExecContext, budget uint64) (uint64, bool, bool) {
			return budget / 4, true, false
		}))
	}
	cycle := func() {
		s.Tick()
		s.WakeAll(1)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state tick+WakeAll allocated %v times per run, want 0", allocs)
	}
}

// spawnHerd parks n always-blocking threads of one PID across the whole
// machine: the shape a broadcast WakeAll sees under PlacementOS.
func spawnHerd(s *Scheduler, pid, n int, opts ...SpawnOption) []*Thread {
	block := RunnerFunc(func(_ *ExecContext, _ uint64) (uint64, bool, bool) { return 0, true, false })
	threads := make([]*Thread, n)
	for i := range threads {
		threads[i] = s.Spawn(pid, "herd", block, opts...)
	}
	s.Tick() // every thread runs once and blocks
	return threads
}

// warmHerd parks a herd of n threads of PID 1 over 16 cores and returns
// the scheduler with its wake-and-repark cycle — one WakeAll plus the Tick
// in which every woken thread runs for nothing and parks again — already
// run often enough to have grown the run queues and the drain buffer.
// Spawned behind a shut Gate, the herd is re-parked without running.
func warmHerd(n int, opts ...SpawnOption) (s *Scheduler, cycle func()) {
	s = New(numa.NewMachine(numa.Opteron8387()), Config{})
	spawnHerd(s, 1, n, opts...)
	cycle = func() {
		s.WakeAll(1)
		s.Tick()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	return s, cycle
}

// TestWakeAllHerdZeroAlloc is the same guard at herd scale: 4096 parked
// threads over 16 cores, woken and re-parked, allocate nothing once warm,
// whether they run for nothing or wait behind a shut gate, which re-parks
// every one of them without a run.
func TestWakeAllHerdZeroAlloc(t *testing.T) {
	var gate Gate
	for _, opts := range [][]SpawnOption{nil, {Gated(&gate)}} {
		s, cycle := warmHerd(4096, opts...)
		if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
			t.Fatalf("herd WakeAll+tick allocated %v times per run, want 0", allocs)
		}
		st := s.Stats()
		if st.SpuriousWakeups != st.Wakeups || st.Wakeups == 0 {
			t.Fatalf("%d of %d herd wake-ups counted spurious, want all", st.SpuriousWakeups, st.Wakeups)
		}
		if opts != nil && gate.Reparks() != st.Wakeups {
			t.Fatalf("%d of %d gated wake-ups re-parked without a run, want all", gate.Reparks(), st.Wakeups)
		}
	}
}
