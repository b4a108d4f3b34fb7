package cluster

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"elasticore/internal/arrivals"
	"elasticore/internal/faults"
	"elasticore/internal/hashmix"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
	"elasticore/internal/workload"
)

// engine_test.go pins the event-driven fleet engine: a coordinator that
// jumps to its next event is indistinguishable from one that walks every
// quantum (the integer deadline it jumps to is pinned by workload's
// TestGridCycleMatchesFloatTest), the worker hand-off loses and duplicates
// nothing under exit/respawn races, and an idle fleet costs no allocation.

// fixedArrivals replays a sorted list of arrival times (seconds) and then
// ends, for runs that need arrivals at exact instants.
type fixedArrivals []float64

func (a *fixedArrivals) Next() (float64, bool) {
	if len(*a) == 0 {
		return 0, false
	}
	t := (*a)[0]
	*a = (*a)[1:]
	return t, true
}

// setMaxJump assigns the package's test-only variable for the duration of
// a test.
func setMaxJump(t *testing.T, n int) {
	old := maxJump
	maxJump = n
	t.Cleanup(func() { maxJump = old })
}

// jumpScenario is one coordinator run of the jump differential.
type jumpScenario struct {
	name string
	// plan and replicas shape the fleet; arbiter and probes pick its
	// control tier.
	plan     string
	replicas int
	arbiter  bool
	probes   bool
	// tune adjusts the sparse keyed coordinator every scenario starts from.
	tune func(c *Coordinator)
	// check asserts that the run exercised what the scenario is for.
	check func(t *testing.T, res Result)
}

var jumpScenarios = []jumpScenario{
	{
		name:    "healthy",
		arbiter: true,
		tune:    func(c *Coordinator) { c.ScatterEvery = 7 },
	},
	{
		name:   "probe-lit",
		probes: true,
	},
	{
		name:    "max-seconds",
		arbiter: true,
		tune: func(c *Coordinator) {
			c.MaxArrivals = 0
			c.MaxSeconds = 0.0503 // not a multiple of the 50 us quantum
		},
		check: func(t *testing.T, res Result) {
			if res.ElapsedSeconds < 0.0503 || res.Offered == 0 {
				t.Fatalf("run did not end on MaxSeconds: elapsed %v s, offered %d", res.ElapsedSeconds, res.Offered)
			}
		},
	},
	{
		// No timeout, hedge or fault plan, so nothing but arrivals bounds
		// a jump, and one-deep queues under bursts of four: singles are
		// shed with no retry budget and scatters are dropped whole.
		name:    "shedding",
		arbiter: true,
		tune: func(c *Coordinator) {
			var times []float64
			for k := 0; k < c.MaxArrivals; k++ {
				times = append(times, float64(k/4)*3e-3)
			}
			c.Process = (*fixedArrivals)(&times)
			c.MaxInFlight, c.QueueCap = 1, 1
			c.ScatterEvery = 5
		},
		check: func(t *testing.T, res Result) {
			if res.Dropped == 0 || res.Dropped+res.Completed != res.Offered || res.Retried != 0 {
				t.Fatalf("shedding run completed %d and dropped %d of %d with %d retries, want sheds and no retry",
					res.Completed, res.Dropped, res.Offered, res.Retried)
			}
		},
	},
	{
		// No health monitor: the fleet may stretch, and the coordinator's
		// jumps are bounded by timeouts, backoffs, hedge points and wire
		// deliveries rather than by arrivals alone.
		name:     "faulted",
		plan:     "link m1 +0.7ms drop 0.35 @0s; slow m2 c* x3 @4ms for 30ms",
		replicas: 2,
		arbiter:  true,
		tune: func(c *Coordinator) {
			c.TimeoutSeconds = 4e-3
			c.BackoffSeconds = 1.5e-3
			c.HedgeAfterSeconds = 2.5e-3
			c.MaxRetries = 5
		},
		check: func(t *testing.T, res Result) {
			if res.WireDropped == 0 || res.Retried == 0 || res.Hedged == 0 {
				t.Fatalf("faulted run dropped %d, retried %d, hedged %d — the ft timers never bounded a jump",
					res.WireDropped, res.Retried, res.Hedged)
			}
		},
	},
}

// jumpObservables is fleetObservables plus what only this differential
// compares.
type jumpObservables struct {
	fleetObservables
	Stats  []sched.Stats
	Probes [][]obs.Snapshot
	Engine EngineStats
}

// run executes the scenario at a worker count on a lit bus.
func (sc jumpScenario) run(t *testing.T, workers int) jumpObservables {
	t.Helper()
	bus := obs.NewBus(0)
	var fp *faults.Plan
	if sc.plan != "" {
		p, err := faults.Parse(sc.plan)
		if err != nil {
			t.Fatal(err)
		}
		fp = p
	}
	f, err := NewFleet(Options{
		Machines: 3, Shards: 6, SF: 0.002, Seed: 7, Mode: workload.ModeDense,
		Replicas: sc.replicas, Faults: fp, Bus: bus, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.arbiter {
		pressuredArbiter(t, f, 30)
	}
	if sc.probes {
		for _, r := range f.Rigs {
			r.EnableProbe(0)
		}
	}
	c := &Coordinator{
		Fleet: f,
		// 2.5 ms between arrivals is ~50 quanta; a Q6 at this scale runs
		// for a few, so most of the run is idle gaps.
		Process:     arrivals.NewPoisson(400, 11),
		Keys:        uniformKeys(f.Sharder),
		MaxArrivals: 60,
		MaxSeconds:  120,
	}
	if sc.tune != nil {
		sc.tune(c)
	}
	res := c.Run()
	out := jumpObservables{
		fleetObservables: fleetObservables{
			Result:    res,
			Now:       f.Now(),
			Allocated: f.AllocatedCores(),
			Events:    bus.Events(),
		},
		Engine: f.EngineStats(),
	}
	for _, r := range f.Rigs {
		out.Machines = append(out.Machines, r.Machine.Snapshot())
		out.Stats = append(out.Stats, r.Sched.Stats())
		if r.Probe != nil {
			out.Probes = append(out.Probes, r.Probe.Samples())
		}
	}
	return out
}

// TestCoordinatorJumpEquivalence: the coordinator that advances to its
// next event in one Fleet.Advance matches the same run forced to one
// quantum per iteration in every observable — result, machine counters,
// scheduler stats, probe samples and the bus event stream — at Workers 1,
// 2 and 4.
func TestCoordinatorJumpEquivalence(t *testing.T) {
	for _, sc := range jumpScenarios {
		t.Run(sc.name, func(t *testing.T) {
			setMaxJump(t, 1)
			want := sc.run(t, 1)
			if want.Engine.Quanta != want.Engine.Epochs {
				t.Fatalf("reference run took %d quanta in %d epochs, want one per epoch", want.Engine.Quanta, want.Engine.Epochs)
			}
			if len(want.Events) == 0 || want.Result.Completed == 0 {
				t.Fatalf("reference run published %d events and completed %d requests", len(want.Events), want.Result.Completed)
			}
			if sc.check != nil {
				sc.check(t, want.Result)
			}
			setMaxJump(t, 1<<30)
			for _, workers := range []int{1, 2, 4} {
				got := sc.run(t, workers)
				label := sc.name + " " + labelWorkers(workers)
				// Result's conservation laws: every offered request resolved
				// exactly once or was abandoned, under exactly one routing kind.
				if r := got.Result; r.Abandoned < 0 || r.Offered != r.Completed+r.Dropped+r.Failed+r.Abandoned ||
					r.RoutedKeyed+r.Scattered != r.Offered {
					t.Fatalf("%s: offered %d != completed %d + dropped %d + failed %d + abandoned %d, or routed %d+%d",
						label, r.Offered, r.Completed, r.Dropped, r.Failed, r.Abandoned, r.RoutedKeyed, r.Scattered)
				}
				diffObservables(t, label, want.fleetObservables, got.fleetObservables)
				if !reflect.DeepEqual(want.Stats, got.Stats) {
					t.Fatalf("%s: scheduler stats diverged:\n%+v\nwant\n%+v", label, got.Stats, want.Stats)
				}
				if !reflect.DeepEqual(want.Probes, got.Probes) {
					t.Fatalf("%s: probe samples diverged", label)
				}
				if got.Engine.Quanta != want.Engine.Quanta {
					t.Fatalf("%s: drove %d quanta, want %d", label, got.Engine.Quanta, want.Engine.Quanta)
				}
				if 2*got.Engine.Epochs > got.Engine.Quanta {
					t.Fatalf("%s: %d epochs for %d quanta — the coordinator hardly jumped", label, got.Engine.Epochs, got.Engine.Quanta)
				}
			}
		})
	}
}

// stressFleet is four small machines, each with one thread that burns
// part of a quantum and blocks until the test wakes it again.
func stressFleet(t *testing.T, workers int) (*Fleet, []*sched.Thread) {
	t.Helper()
	f, err := NewFleet(Options{Machines: 4, SF: 0.002, Seed: 7, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	threads := make([]*sched.Thread, len(f.Rigs))
	for m, r := range f.Rigs {
		threads[m] = r.Sched.Spawn(99, "burst", sched.RunnerFunc(
			func(_ *sched.ExecContext, budget uint64) (uint64, bool, bool) { return budget / 4, true, false }))
	}
	f.Tick() // every thread runs once and parks
	return f, threads
}

// TestFleetHandoffStress drives 200k epochs whose busy set changes every
// epoch, in two fleets one after the other, so that machines are offered
// to the host pool and taken back while its workers come and go. Every
// machine must have run exactly the quanta driven — a lost epoch hangs the
// barrier, a duplicated one ticks a machine twice — and the pool's workers
// must be gone shortly after the last epoch.
func TestFleetHandoffStress(t *testing.T) {
	epochs := 100_000 // per fleet
	if testing.Short() {
		epochs = 10_000
	}
	for run := range 2 {
		baseline := runtime.NumGoroutine()
		f, threads := stressFleet(t, 4)
		rng := hashmix.Stream{State: uint64(run) + 1}
		quanta := uint64(1)
		for e := 0; e < epochs; e++ {
			// Wake a pseudo-random subset: 0..4 busy machines, so idle,
			// inline and parallel epochs interleave.
			set := rng.Next() & 0xF
			if e%3 == 0 {
				set &= set >> 1 // thin the set out: more idle and inline epochs
			}
			for m, th := range threads {
				if set&(1<<m) != 0 {
					f.Rigs[m].Sched.Wake(th)
				}
			}
			if e%5 == 0 {
				f.Advance(3)
				quanta += 3
			} else {
				f.Tick()
				quanta++
			}
		}
		for m, r := range f.Rigs {
			if got := r.Sched.Stats().TicksRun; got != quanta {
				t.Fatalf("run %d: machine %d ran %d quanta, want %d", run, m, got, quanta)
			}
			if r.Machine.Now() != f.Now() {
				t.Fatalf("run %d: machine %d out of lockstep", run, m)
			}
		}
		st := f.EngineStats()
		if st.Quanta != quanta || st.ParallelEpochs == 0 || st.InlineEpochs == 0 ||
			st.Epochs == st.ParallelEpochs+st.InlineEpochs {
			t.Fatalf("run %d: engine stats %+v do not show the mix of idle, inline and parallel epochs over %d quanta", run, st, quanta)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("run %d: %d goroutines still alive, baseline %d — a pool worker outlived its fleet",
					run, runtime.NumGoroutine(), baseline)
			}
			runtime.Gosched()
		}
	}
}

// TestFleetIdleEpochZeroAlloc: an epoch that finds every machine idle —
// one Tick, or a 64-quantum Advance — allocates nothing.
func TestFleetIdleEpochZeroAlloc(t *testing.T) {
	f, err := NewFleet(Options{Machines: 4, SF: 0.002, Seed: 7, Mode: workload.ModeDense, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.Advance(256) // park the engines' workers, warm the mechanisms' windows
	warm := f.EngineStats()
	if allocs := testing.AllocsPerRun(100, func() { f.Tick() }); allocs != 0 {
		t.Errorf("idle Tick allocated %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { f.Advance(64) }); allocs != 0 {
		t.Errorf("idle Advance(64) allocated %v times per run, want 0", allocs)
	}
	st := f.EngineStats()
	if st.InlineEpochs != warm.InlineEpochs || st.ParallelEpochs != warm.ParallelEpochs ||
		st.MachineQuantaSkipped-warm.MachineQuantaSkipped != 4*(st.Quanta-warm.Quanta) {
		t.Errorf("engine stats %+v (warm %+v): the fleet was not idle throughout", st, warm)
	}
}
