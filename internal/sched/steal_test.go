package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"elasticore/internal/numa"
	"elasticore/internal/obs"
)

// stealWork mostly stays runnable, so the queues of a small cpuset stay
// long while the other cores idle and look for a steal; now and then it
// parks, and after its scripted number of slices it exits.
type stealWork struct {
	rng    *rand.Rand
	rounds int
}

func (w *stealWork) Run(_ *ExecContext, budget uint64) (uint64, bool, bool) {
	if w.rounds--; w.rounds <= 0 {
		return budget / 4, false, true
	}
	if w.rng.Intn(5) == 0 {
		return budget / 8, true, false
	}
	return budget / uint64(1+w.rng.Intn(3)), false, false
}

// stealEnd is the observable end state of one runSteal.
type stealEnd struct {
	Stats      Stats
	Counters   numa.Counters
	Queues     []uint64 // FNV-1a of every core's queue, after every tick
	Migrations []obs.Event
}

// runSteal keeps two processes' threads crowded on small cpusets, so most
// cores idle with a steal candidate somewhere and cache a fruitless scan,
// and between ticks makes zero to two random changes, each of which alone
// may turn that answer: a spawn (a third of them pinned), a WakeAll, a
// single Wake, a cpuset write that shrinks or grows a group, an AddPID.
func runSteal(ref bool, seed int64) stealEnd {
	machine := numa.NewMachine(numa.Opteron8387())
	s := New(machine, Config{})
	d := driveOf(s, ref)
	var end stealEnd
	bus := obs.NewBus(0)
	s.SetBus(bus)
	bus.Subscribe(obs.KindMigration, func(e obs.Event) { end.Migrations = append(end.Migrations, e) })
	rng := rand.New(rand.NewSource(seed))
	groups := []*CGroup{s.NewCGroup("a"), s.NewCGroup("b")}
	groups[0].AddPID(1)
	groups[0].SetCPUs(NewCPUSet(0, 1))
	groups[1].AddPID(2)
	groups[1].SetCPUs(NewCPUSet(2))
	core := func() numa.CoreID { return numa.CoreID(rng.Intn(16)) }

	var threads []*Thread
	spawn := func(pid int) {
		var opts []SpawnOption
		if rng.Intn(3) == 0 {
			opts = append(opts, Pinned(NewCPUSet(core(), core())))
		}
		w := &stealWork{rng: rand.New(rand.NewSource(seed<<16 + int64(len(threads)))), rounds: 10 + rng.Intn(80)}
		threads = append(threads, s.Spawn(pid, "steal", w, opts...))
	}
	for i := 0; i < 12; i++ {
		spawn(1 + i%3)
	}
	for tick := 0; tick < 600; tick++ {
		d.tick()
		h := uint64(14695981039346656037)
		for c := range s.queues {
			h = (h ^ 0xff) * 1099511628211
			for i := 0; i < s.queues[c].Len(); i++ {
				h = (h ^ uint64(s.queues[c].At(i).ID)) * 1099511628211
			}
		}
		end.Queues = append(end.Queues, h)
		for n := rng.Intn(3); n > 0; n-- {
			switch rng.Intn(6) {
			case 0:
				spawn(1 + rng.Intn(3))
			case 1:
				d.wakeAll(1 + rng.Intn(3))
			case 2:
				if th := threads[rng.Intn(len(threads))]; th.State() == Blocked {
					s.Wake(th)
				}
			case 3:
				g := groups[rng.Intn(2)]
				g.SetCPUs(g.CPUs().Add(core()))
			case 4:
				groups[rng.Intn(2)].SetCPUs(NewCPUSet(core(), core()))
			default:
				groups[rng.Intn(2)].AddPID(1 + rng.Intn(3))
			}
		}
	}
	end.Stats, end.Counters = s.Stats(), machine.Snapshot()
	return end
}

// TestStealCacheMatchesRescan is idleSteal's differential: its cached
// answer against refIdleSteal's scan of every queue, through every kind
// of change that must move gen, each often the only change between two
// ticks.
func TestStealCacheMatchesRescan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ref, fast := runSteal(true, seed), runSteal(false, seed)
		for i := range ref.Queues {
			if ref.Queues[i] != fast.Queues[i] {
				t.Fatalf("seed %d: queues diverged after tick %d\nref:  %+v\nfast: %+v", seed, i, ref.Stats, fast.Stats)
			}
		}
		if !reflect.DeepEqual(ref, fast) {
			t.Fatalf("seed %d: runs diverged\nref:  %+v\nfast: %+v", seed, ref.Stats, fast.Stats)
		}
		if fast.Stats.StolenTasks == 0 {
			t.Fatalf("seed %d: nothing was stolen", seed)
		}
	}
}

// TestStealCacheFollowsEveryChange builds, for each kind of change that
// must move gen, a scheduler whose idle cores have just cached a
// fruitless scan, and then makes that one change, after which core 0 can
// steal. Core 14 is the crowded one: idle core 15 scans after it runs, so
// the answer still stands at the end of the quantum, and core 0 reads it
// first in the next, which must steal as refIdleSteal's rescan does.
func TestStealCacheFollowsEveryChange(t *testing.T) {
	spin := RunnerFunc(func(_ *ExecContext, budget uint64) (uint64, bool, bool) { return budget / 4, false, false })
	park := RunnerFunc(func(_ *ExecContext, _ uint64) (uint64, bool, bool) { return 1, true, false })
	// crowd puts n spinners of pid 1 on core 14 alone.
	crowd := func(s *Scheduler, n int) *CGroup {
		g := s.NewCGroup("crowd")
		g.AddPID(1)
		g.SetCPUs(NewCPUSet(14))
		for range n {
			s.Spawn(1, "spin", spin)
		}
		return g
	}
	// parked leaves a thread of pid 2, free to run anywhere, parked on
	// core 14.
	parked := func(s *Scheduler) *Thread {
		h := s.NewCGroup("parked")
		h.AddPID(2)
		h.SetCPUs(NewCPUSet(14))
		th := s.Spawn(2, "park", park)
		s.Tick()
		h.SetCPUs(FullSet(s.Machine().Topology()))
		return th
	}
	cases := []struct {
		name  string
		setup func(s *Scheduler) (change func())
	}{
		{"WakeAll", func(s *Scheduler) func() {
			crowd(s, 3)
			parked(s)
			return func() { s.WakeAll(2) }
		}},
		{"Wake", func(s *Scheduler) func() {
			crowd(s, 3)
			th := parked(s)
			return func() { s.Wake(th) }
		}},
		{"Spawn", func(s *Scheduler) func() {
			// A thread free to run anywhere sits alone on core 3; a
			// spawn pinned there ties core 3 with core 14, and the lower
			// index becomes the busiest queue.
			crowd(s, 2)
			k := s.NewCGroup("alone")
			k.AddPID(3)
			k.SetCPUs(NewCPUSet(3))
			s.Spawn(3, "spin", spin)
			k.SetCPUs(FullSet(s.Machine().Topology()))
			return func() { s.Spawn(4, "spin", spin, Pinned(NewCPUSet(3))) }
		}},
		{"SetCPUs", func(s *Scheduler) func() {
			g := crowd(s, 3)
			return func() { g.SetCPUs(NewCPUSet(0, 14)) }
		}},
		{"AddPID", func(s *Scheduler) func() {
			crowd(s, 3)
			m := s.NewCGroup("wide")
			m.SetCPUs(NewCPUSet(0, 14))
			return func() { m.AddPID(1) }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var ends [2]Stats
			for i, ref := range []bool{true, false} {
				s := newTestSched()
				change := c.setup(s)
				d := driveOf(s, ref)
				d.tick()
				d.tick()
				before := s.Stats().StolenTasks
				change()
				d.tick()
				if ref && s.Stats().StolenTasks == before {
					t.Fatal("the reference stole nothing after the change: the scenario is broken")
				}
				ends[i] = s.Stats()
			}
			if ends[0] != ends[1] {
				t.Errorf("after the change\nref:  %+v\nfast: %+v", ends[0], ends[1])
			}
		})
	}
}
