package sched

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"elasticore/internal/numa"
	"elasticore/internal/obs"
)

// proctable_test.go covers the per-process thread table behind
// blockThread/unblockThread/WakeAll: its structural invariants, the wake
// order across compactions, thread records respawned through a Recycler,
// and a herd-scale differential against ref_test.go's scan-and-sort
// refWakeAll.

// checkTables asserts the thread-table invariants: every live thread sits
// in the slot it points at, slot order is strictly ascending in TID, a
// slot's bit is set exactly when its thread is Blocked, and the cached
// counts agree with the slots and the bitmap. Valid between scheduler
// calls (inside a WakeAll drain the marks are deliberately ahead of the
// thread states).
func checkTables(t *testing.T, s *Scheduler) {
	t.Helper()
	live := 0
	for pid, p := range s.procs {
		if want := (len(p.slots) + 63) >> 6; len(p.blocked) != want {
			t.Fatalf("pid %d: %d bitmap words for %d slots, want %d", pid, len(p.blocked), len(p.slots), want)
		}
		nonNil, popcount := 0, 0
		last := TID(0)
		for i, th := range p.slots {
			marked := p.blocked[i>>6]&(1<<(i&63)) != 0
			if th == nil {
				if marked {
					t.Fatalf("pid %d: vacated slot %d is marked blocked", pid, i)
				}
				continue
			}
			nonNil++
			if th.proc != p || th.slot != i || th.PID != pid {
				t.Fatalf("pid %d: slot %d holds TID %d pointing at slot %d of pid %d", pid, i, th.ID, th.slot, th.PID)
			}
			if th.ID <= last {
				t.Fatalf("pid %d: slot %d TID %d not above its predecessor %d", pid, i, th.ID, last)
			}
			last = th.ID
			if marked != (th.state == Blocked) {
				t.Fatalf("pid %d: TID %d is %v but its blocked mark is %v", pid, th.ID, th.state, marked)
			}
			if s.threads[th.ID] != th {
				t.Fatalf("pid %d: slot %d holds TID %d, which is not live", pid, i, th.ID)
			}
		}
		for w, word := range p.blocked {
			popcount += bits.OnesCount64(word)
			if w == len(p.blocked)-1 && len(p.slots)&63 != 0 && word>>(len(p.slots)&63) != 0 {
				t.Fatalf("pid %d: bitmap marks a slot past the table's end", pid)
			}
		}
		if p.live != nonNil || p.nblocked != popcount {
			t.Fatalf("pid %d: live %d / blocked %d cached, %d / %d counted", pid, p.live, p.nblocked, nonNil, popcount)
		}
		live += nonNil
	}
	if live != len(s.threads) {
		t.Fatalf("tables hold %d threads, scheduler has %d live", live, len(s.threads))
	}
}

// herdWork models a worker under a broadcast wake-up: most slices find
// nothing to do and block again at zero cost, some do a little work, and
// after its scripted number of slices the thread exits.
type herdWork struct {
	rng    *rand.Rand
	rounds int
}

func (w *herdWork) Run(_ *ExecContext, budget uint64) (uint64, bool, bool) {
	w.rounds--
	if w.rounds <= 0 {
		return budget / 64, false, true
	}
	switch w.rng.Intn(8) {
	case 0:
		return budget / 16, false, false // work, stay runnable
	case 1:
		return budget / 64, true, false // work, then stay
	default:
		return 0, true, false // woken for nothing
	}
}

// gatedWork is herdWork behind a gate: while the gate is shut its Run
// parks at once and changes nothing, which is the Gate contract.
type gatedWork struct {
	herdWork
	gate *Gate
}

func (w *gatedWork) Run(ctx *ExecContext, budget uint64) (uint64, bool, bool) {
	if !w.gate.open {
		return 0, true, false
	}
	return w.herdWork.Run(ctx, budget)
}

// herdEnd is the observable end state of one runHerd.
type herdEnd struct {
	Stats    Stats
	Counters numa.Counters
	// Queues is sampled after every tick: an FNV-1a hash of each core's
	// queue in order and of every thread's state, by spawn order.
	Queues []uint64
	// Migrations is the KindMigration stream.
	Migrations []obs.Event
	Lifespans  []uint64
	// Compactions counts the table shrinks observed between ticks.
	Compactions int
}

// runHerd drives 3 processes of 600 threads each (two in cgroups, one in
// the root set at first) plus late arrivals through staggered exits, so
// every table compacts several times. A third of the threads sit behind
// one of four gates that flip between ticks, and one in eleven is pinned.
// Between ticks it interleaves WakeAll broadcasts, single Wakes, cpuset
// writes that shrink or grow a group and AddPID moves, in an order the
// seed picks: a cgroup write straight after a tick, before anything is
// queued, is what lets a stale steal answer show.
func runHerd(t *testing.T, ref bool, seed int64) herdEnd {
	const pids, perPID, ticks = 3, 600, 700
	machine := numa.NewMachine(numa.Opteron8387())
	s := New(machine, Config{})
	d := driveOf(s, ref)
	topo := machine.Topology()
	var end herdEnd
	bus := obs.NewBus(0)
	s.SetBus(bus)
	bus.Subscribe(obs.KindMigration, func(e obs.Event) { end.Migrations = append(end.Migrations, e) })
	rng := rand.New(rand.NewSource(seed))
	groups := []*CGroup{s.NewCGroup("a"), s.NewCGroup("b")}
	groups[0].AddPID(1)
	groups[1].AddPID(2)
	cpusets := []CPUSet{FullSet(topo), NewCPUSet(0, 1, 2, 3, 4, 5, 6, 7), NewCPUSet(2, 3), NewCPUSet(4, 5, 6, 7, 8, 9)}
	var gates [4]Gate

	var threads []*Thread
	spawn := func(pid, rounds int) {
		hw := herdWork{rng: rand.New(rand.NewSource(seed<<20 + int64(len(threads)))), rounds: rounds}
		var r Runner = &hw
		var opts []SpawnOption
		if len(threads)%3 == 1 {
			g := &gates[len(threads)%len(gates)]
			r = &gatedWork{herdWork: hw, gate: g}
			opts = append(opts, Gated(g))
		}
		if len(threads)%11 == 4 {
			opts = append(opts, Pinned(NewCPUSet(numa.CoreID(rng.Intn(16)), numa.CoreID(rng.Intn(16)))))
		}
		threads = append(threads, s.Spawn(pid, "herd", r, opts...))
	}
	for i := 0; i < pids*perPID; i++ {
		spawn(1+i%pids, 4+rng.Intn(150))
	}
	sample := func() {
		h := uint64(14695981039346656037)
		mix := func(v int) { h = (h ^ uint64(v)) * 1099511628211 }
		for c := range s.queues {
			mix(-1)
			for i := 0; i < s.queues[c].Len(); i++ {
				mix(int(s.queues[c].At(i).ID))
			}
		}
		for _, th := range threads {
			mix(int(th.State()))
		}
		end.Queues = append(end.Queues, h)
	}
	cgroupWrite := func() {
		g := groups[rng.Intn(2)]
		switch rng.Intn(3) {
		case 0:
			g.SetCPUs(cpusets[rng.Intn(len(cpusets))])
		case 1: // grow: nothing is displaced, only allowed sets widen
			g.SetCPUs(g.CPUs().Add(numa.CoreID(rng.Intn(16))).Add(numa.CoreID(rng.Intn(16))))
		default:
			g.AddPID(1 + rng.Intn(pids))
		}
	}
	slots := make(map[int]int)
	for tick := 0; tick < ticks; tick++ {
		if tick%25 == 0 {
			for i := 0; i < 12; i++ {
				spawn(1+rng.Intn(pids), 4+rng.Intn(60))
			}
		}
		d.tick()
		sample()
		for pid, p := range s.procs {
			if len(p.slots) < slots[pid] {
				end.Compactions++
			}
			slots[pid] = len(p.slots)
		}
		checkTables(t, s)
		if rng.Intn(4) == 0 {
			cgroupWrite()
			d.tick()
			sample()
			checkTables(t, s)
		}
		for i := range gates {
			gates[i].Set(rng.Intn(3) != 0)
		}
		d.wakeAll(1 + tick%pids)
		if tick%5 == 0 {
			// One targeted wake: the first parked thread at or after a
			// rotating index.
			for i := range threads {
				if th := threads[(tick*31+i)%len(threads)]; th.State() == Blocked {
					s.Wake(th)
					break
				}
			}
		}
		if tick%40 == 20 {
			cgroupWrite()
		}
		checkTables(t, s)
	}
	for i := range gates {
		gates[i].Set(true)
	}
	for i := 0; i < 400 && s.LiveThreads() > 0; i++ {
		for pid := 1; pid <= pids; pid++ {
			d.wakeAll(pid)
		}
		d.tick()
	}
	checkTables(t, s)
	if n := s.LiveThreads(); n != 0 {
		t.Fatalf("seed %d ref=%v: %d threads never exited", seed, ref, n)
	}
	end.Stats, end.Counters = s.Stats(), machine.Snapshot()
	for _, th := range threads {
		spawned, exited := th.Lifespan()
		end.Lifespans = append(end.Lifespans, spawned, exited)
	}
	return end
}

// TestHerdMatchesNaive is the herd-scale differential: the scheduler's
// Tick and WakeAll against refTick and refWakeAll, bit-identical through
// compactions, targeted wakes, gates, pinned threads and cgroup writes:
// the same Stats, queue orders, thread states, migration stream, hardware
// counters and lifespans. It checks the thread table's bitmap drain against
// a scan of the global thread map, runCore's re-park behind a shut gate
// against calling Run, and idleSteal's cached answer against a rescan.
func TestHerdMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ref := runHerd(t, true, seed)
		fast := runHerd(t, false, seed)
		if !reflect.DeepEqual(ref.Stats, fast.Stats) {
			t.Errorf("seed %d: stats diverged\nref:  %+v\nfast: %+v", seed, ref.Stats, fast.Stats)
		}
		for i := range min(len(ref.Queues), len(fast.Queues)) {
			if ref.Queues[i] != fast.Queues[i] {
				t.Errorf("seed %d: queues or thread states diverged after tick %d", seed, i)
				break
			}
		}
		if !reflect.DeepEqual(ref, fast) {
			t.Errorf("seed %d: herd runs diverged (%d against %d samples, %d against %d migrations)",
				seed, len(ref.Queues), len(fast.Queues), len(ref.Migrations), len(fast.Migrations))
		}
		if fast.Compactions < 9 {
			t.Errorf("seed %d: %d compactions over 3 tables, want each to compact several times", seed, fast.Compactions)
		}
		if fast.Stats.SpuriousWakeups == 0 || fast.Stats.SpuriousWakeups >= fast.Stats.Wakeups {
			t.Errorf("seed %d: %d spurious of %d wake-ups", seed, fast.Stats.SpuriousWakeups, fast.Stats.Wakeups)
		}
		if fast.Stats.StolenTasks == 0 {
			t.Errorf("seed %d: nothing was stolen", seed)
		}
	}
}

// TestWakeAllOrderAcrossCompaction pins WakeAll's contract: it wakes
// exactly the threads Blocked at call time in ascending TID. With every
// thread pinned to one core, ascending-TID pushFronts make the next
// quantum run them in descending TID — before and after a compaction
// re-indexes the survivors.
func TestWakeAllOrderAcrossCompaction(t *testing.T) {
	s := newTestSched()
	const n = 200
	var ran []TID
	exit := make(map[TID]bool)
	stay := make(map[TID]bool) // threads that stay Runnable instead of parking
	runner := RunnerFunc(func(ctx *ExecContext, _ uint64) (uint64, bool, bool) {
		ran = append(ran, ctx.TID)
		switch {
		case exit[ctx.TID]:
			return 1, false, true
		case stay[ctx.TID]:
			return 1, false, false
		}
		return 1, true, false
	})
	var threads []*Thread
	for i := 0; i < n; i++ {
		threads = append(threads, s.Spawn(1, "w", runner, Pinned(NewCPUSet(0))))
	}
	other := s.Spawn(2, "other", runner, Pinned(NewCPUSet(0)))
	s.Tick() // everyone runs once in spawn order and parks
	checkTables(t, s)

	wantDescending := func(label string, blocked []*Thread) {
		t.Helper()
		ran = ran[:0]
		s.WakeAll(1)
		for _, th := range blocked {
			if th.State() != Runnable {
				t.Fatalf("%s: TID %d not woken", label, th.ID)
			}
		}
		if other.State() != Blocked {
			t.Fatalf("%s: WakeAll(1) woke pid 2", label)
		}
		s.Tick()
		if len(ran) != len(blocked) {
			t.Fatalf("%s: %d threads ran, want the %d that were blocked", label, len(ran), len(blocked))
		}
		for i, id := range ran {
			if want := blocked[len(blocked)-1-i].ID; id != want {
				t.Fatalf("%s: run %d was TID %d, want %d (descending TID)", label, i, id, want)
			}
		}
		checkTables(t, s)
	}
	wantDescending("before compaction", threads)

	// Two of every three threads exit on their next slice; the table drops
	// below half live and compacts.
	var survivors []*Thread
	for i, th := range threads {
		if i%3 == 0 {
			survivors = append(survivors, th)
		} else {
			exit[th.ID] = true
		}
	}
	p := s.procs[1]
	s.WakeAll(1)
	s.Tick()
	checkTables(t, s)
	if len(p.slots) >= n || p.live != len(survivors) {
		t.Fatalf("table holds %d slots for %d live threads after %d exits: no compaction", len(p.slots), p.live, n-len(survivors))
	}
	if p.nblocked != len(survivors) {
		t.Fatalf("compaction kept %d blocked marks, want %d", p.nblocked, len(survivors))
	}
	wantDescending("after compaction", survivors)

	// A thread that stays Runnable is not in the set, and a targeted Wake
	// takes a parked thread out of it; the next broadcast wakes the rest.
	stay[survivors[1].ID] = true
	s.WakeAll(1)
	s.Tick()
	s.Wake(survivors[1]) // Runnable: ignored
	s.Wake(survivors[2]) // Blocked: leaves the set on its own
	checkTables(t, s)
	delete(stay, survivors[1].ID)
	rest := append([]*Thread{survivors[0]}, survivors[3:]...)
	ran = ran[:0]
	s.WakeAll(1)
	s.Tick()
	if got, want := len(ran), len(survivors); got != want {
		t.Fatalf("%d threads ran after mixed wakes, want %d", got, want)
	}
	// survivors[1] was already queued at the back, survivors[2] at the
	// front before the broadcast pushed the rest ahead of it.
	for i, th := range rest {
		if ran[len(rest)-1-i] != th.ID {
			t.Fatalf("broadcast order broken at %d: %v", i, ran)
		}
	}
	if ran[len(rest)] != survivors[2].ID || ran[len(rest)+1] != survivors[1].ID {
		t.Fatalf("targeted wakes ran out of place: tail %v", ran[len(rest):])
	}
	checkTables(t, s)
}

// TestWakeAllReentrantWakeSeesEmptySet pins the drain order: the marks
// are cleared before the first Wake, so a migration subscriber that
// re-enters Wake on a later thread of the batch finds the set empty,
// wakes that thread early, and the drain's own Wake of it is a no-op.
func TestWakeAllReentrantWakeSeesEmptySet(t *testing.T) {
	s := newTestSched()
	g := s.NewCGroup("g")
	g.AddPID(1)
	g.SetCPUs(NewCPUSet(0, 1, 2, 3))
	block := RunnerFunc(func(_ *ExecContext, _ uint64) (uint64, bool, bool) { return 1, true, false })
	var threads []*Thread
	for i := 0; i < 4; i++ {
		threads = append(threads, s.Spawn(1, "w", block))
	}
	s.Tick()
	checkTables(t, s)
	// Parked threads keep their stale core through a cpuset write, so each
	// of the wake-ups below migrates and publishes an event.
	g.SetCPUs(NewCPUSet(8, 9, 10, 11))
	events := 0
	bus := obs.NewBus(0)
	s.SetBus(bus)
	bus.Subscribe(obs.KindMigration, func(obs.Event) {
		if events++; events > 1 {
			return
		}
		if n := s.procs[1].nblocked; n != 0 {
			t.Errorf("subscriber inside the drain sees %d blocked marks, want 0", n)
		}
		s.Wake(threads[3])
	})
	s.WakeAll(1)
	if events != 4 {
		t.Fatalf("%d migration events, want one per woken thread", events)
	}
	if got := s.Stats().Wakeups; got != 4 {
		t.Fatalf("%d wake-ups counted, want 4: a thread was woken twice or not at all", got)
	}
	queued := 0
	for _, l := range s.QueueLengths() {
		queued += l
	}
	if queued != 4 {
		t.Fatalf("%d threads queued after the broadcast, want 4", queued)
	}
	checkTables(t, s)
}

// forkWork is one dataflow thread of a fork, as a Recycler: it parks until
// its round is released, then works one slice and exits, handing itself —
// and with it the last pointer to its thread record — back to the pool the
// next fork draws from.
type forkWork struct {
	rec      *Thread
	released *bool
	pool     *[]*forkWork
}

func (w *forkWork) Recycled() *Thread { return w.rec }

func (w *forkWork) Run(_ *ExecContext, budget uint64) (uint64, bool, bool) {
	if !*w.released {
		return 0, true, false
	}
	*w.pool = append(*w.pool, w)
	return budget / 8, false, true
}

// TestRecycledRecordsKeepTables forks rounds of recycled threads beside a
// long-lived one, so exits leave holes and the table compacts. Every fork
// after the first reuses the previous round's records, yet each thread is
// new to the model: its TID is the next from the counter, its slot keeps
// the table ascending in TID, Stats.Spawned counts it, and its run slice
// carries the name this spawn gave it. A record whose thread still runs
// is refused.
func TestRecycledRecordsKeepTables(t *testing.T) {
	const workers, rounds = 8, 40
	s := newTestSched()
	bus := obs.NewBus(0)
	s.SetBus(bus)
	labels := map[TID]string{}
	bus.Subscribe(obs.KindRunSlice, func(e obs.Event) { labels[TID(e.TID)] = e.Label })
	park := RunnerFunc(func(_ *ExecContext, _ uint64) (uint64, bool, bool) { return 1, true, false })
	keeper := s.Spawn(1, "keeper", park)

	var pool []*forkWork
	records := map[*Thread]bool{}
	names := map[TID]string{}
	next := keeper.ID + 1
	for r := 0; r < rounds; r++ {
		released := false
		for i := 0; i < workers; i++ {
			var w *forkWork
			if n := len(pool); n > 0 {
				w, pool = pool[n-1], pool[:n-1]
			} else {
				w = &forkWork{pool: &pool}
			}
			w.released = &released
			name := fmt.Sprintf("r%d-w%d", r, i)
			th := s.Spawn(1, name, w)
			if r > 0 && th != w.rec {
				t.Fatalf("round %d: Spawn allocated a record instead of reusing the exited one", r)
			}
			if th.ID != next || th.State() != Runnable || th.Name != name {
				t.Fatalf("round %d: spawned TID %d (%v, %q), want TID %d runnable as %q", r, th.ID, th.State(), th.Name, next, name)
			}
			w.rec, records[th], names[th.ID] = th, true, name
			next++
			checkTables(t, s)
		}
		for guard := 0; !s.Idle(); guard++ {
			if guard > 100 {
				t.Fatalf("round %d: the fork never parked", r)
			}
			s.Tick()
			checkTables(t, s)
		}
		released = true
		s.WakeAll(1)
		for guard := 0; s.LiveThreads() > 1; guard++ {
			if guard > 100 {
				t.Fatalf("round %d: %d threads never exited", r, s.LiveThreads()-1)
			}
			s.Tick()
			checkTables(t, s)
		}
	}
	if got, want := s.Stats().Spawned, uint64(1+rounds*workers); got != want {
		t.Errorf("Stats.Spawned = %d, want %d: one per fork", got, want)
	}
	if len(records) != workers {
		t.Errorf("%d rounds of %d threads used %d records, want %d", rounds, workers, len(records), workers)
	}
	if n := len(s.procs[1].slots); n >= rounds*workers {
		t.Errorf("table holds %d slots after %d exits: it never compacted", n, rounds*workers)
	}
	for tid, name := range names {
		if labels[tid] != name {
			t.Fatalf("TID %d published its slice as %q, want %q", tid, labels[tid], name)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("Spawn reused the record of a live thread")
		}
	}()
	s.Spawn(1, "twin", &forkWork{rec: keeper})
}
