package cluster

import (
	"reflect"
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/faults"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// parallel_test.go pins the parallel engine's contract: a fleet run with
// Workers > 1 — and an Advance over decoupled stretches — is bit-identical
// to the sequential Tick-by-Tick engine, in every observable: coordinator
// results, machine counters, allocations, probe samples and the full bus
// event stream, healthy or faulted.

// parallelFleet builds the equivalence fleets, pinned to a worker count.
func parallelFleet(t *testing.T, machines, workers int, plan string, bus *obs.Bus) *Fleet {
	t.Helper()
	var fp *faults.Plan
	if plan != "" {
		p, err := faults.Parse(plan)
		if err != nil {
			t.Fatal(err)
		}
		fp = p
	}
	f, err := NewFleet(Options{
		Machines: machines,
		Shards:   2 * machines,
		SF:       0.002,
		Seed:     7,
		Mode:     workload.ModeDense,
		Bus:      bus,
		Faults:   fp,
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fleetObservables is everything a run exposes that the parallel engine
// could plausibly perturb.
type fleetObservables struct {
	Result    Result
	Now       uint64
	Allocated []int
	Machines  []numa.Counters
	Events    []obs.Event
}

// pressuredObservables runs the arbitrated pressured workload (the same
// shape as fleetRun in cluster_test.go, over three machines) at a given
// worker count and collects the observables.
func pressuredObservables(t *testing.T, workers int, plan string) fleetObservables {
	t.Helper()
	bus := obs.NewBus(0)
	f := parallelFleet(t, 3, workers, plan, bus)
	pressuredArbiter(t, f, 18)
	c := pressuredCoordinator(f)
	c.Policy = BalanceWeighted
	c.ScatterEvery = 7
	res := c.Run()
	out := fleetObservables{
		Result:    res,
		Now:       f.Now(),
		Allocated: f.AllocatedCores(),
		Events:    bus.Events(),
	}
	for _, r := range f.Rigs {
		out.Machines = append(out.Machines, r.Machine.Snapshot())
	}
	return out
}

// diffObservables fails the test at the first field that diverged, so a
// regression names the broken invariant instead of dumping two structs.
func diffObservables(t *testing.T, label string, want, got fleetObservables) {
	t.Helper()
	if want.Now != got.Now {
		t.Fatalf("%s: fleet clock %d, want %d", label, got.Now, want.Now)
	}
	if !reflect.DeepEqual(want.Allocated, got.Allocated) {
		t.Fatalf("%s: allocated cores %v, want %v", label, got.Allocated, want.Allocated)
	}
	for m := range want.Machines {
		if !reflect.DeepEqual(want.Machines[m], got.Machines[m]) {
			t.Fatalf("%s: machine %d counters diverged:\n%+v\nwant\n%+v",
				label, m, got.Machines[m], want.Machines[m])
		}
	}
	if len(want.Events) != len(got.Events) {
		t.Fatalf("%s: %d bus events, want %d", label, len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		if want.Events[i] != got.Events[i] {
			t.Fatalf("%s: bus event %d = %+v, want %+v — staged replay broke the sequential order",
				label, i, got.Events[i], want.Events[i])
		}
	}
	if !reflect.DeepEqual(want.Result, got.Result) {
		t.Fatalf("%s: coordinator result diverged:\n%+v\nwant\n%+v", label, got.Result, want.Result)
	}
}

// TestFleetParallelEquivalence: the pressured arbitrated run is
// bit-identical at every worker count, including more workers than
// machines.
func TestFleetParallelEquivalence(t *testing.T) {
	want := pressuredObservables(t, 1, "")
	for _, workers := range []int{2, 3, 5} {
		got := pressuredObservables(t, workers, "")
		diffObservables(t, labelWorkers(workers), want, got)
	}
}

// TestFleetParallelEquivalenceFaulted: a crash plus a core slowdown do
// not break the contract — fault edges are barrier work and apply on the
// same quantum regardless of worker count.
func TestFleetParallelEquivalenceFaulted(t *testing.T) {
	plan := "crash m1 @5ms for 10ms; slow m0 c0-7 x4 @2ms for 50ms"
	want := pressuredObservables(t, 1, plan)
	got := pressuredObservables(t, 3, plan)
	diffObservables(t, "faulted workers=3", want, got)
	if len(want.Events) == 0 {
		t.Fatal("faulted run published no events — the plan never fired")
	}
}

func labelWorkers(w int) string {
	return "workers=" + string(rune('0'+w))
}

// stretchFleet builds a coordinator-less fleet with probes enabled and
// per-machine admission work seeded, the configuration under which Advance
// may actually decouple machines across multi-quantum stretches.
func stretchFleet(t *testing.T, workers int) (*Fleet, *obs.Bus) {
	t.Helper()
	bus := obs.NewBus(0)
	f := parallelFleet(t, 3, workers, "", bus)
	for m, r := range f.Rigs {
		r.EnableProbe(0)
		adm := &workload.Admission{Rig: r, MaxInFlight: 4}
		for k := 0; k < 8; k++ {
			adm.Offer(0, 0, int64(m*100+k))
		}
		adm.Fill(0, func(k int, tag int64) *db.Plan {
			return tpch.Build(1+int(tag)%22, uint64(tag)+1)
		})
	}
	return f, bus
}

// stretchObservables snapshots a stretch fleet after it has run.
func stretchObservables(f *Fleet, bus *obs.Bus) fleetObservables {
	out := fleetObservables{
		Now:       f.Now(),
		Allocated: f.AllocatedCores(),
		Events:    bus.Events(),
	}
	for _, r := range f.Rigs {
		out.Machines = append(out.Machines, r.Machine.Snapshot())
	}
	return out
}

// TestFleetAdvanceStretchEquivalence: Advance(n) — which lets machines run
// decoupled up to each epoch barrier — matches n sequential Ticks exactly,
// at workers 1 and >1, down to every probe sample and bus event.
func TestFleetAdvanceStretchEquivalence(t *testing.T) {
	const quanta = 600
	ref, refBus := stretchFleet(t, 1)
	for i := 0; i < quanta; i++ {
		ref.Tick()
	}
	want := stretchObservables(ref, refBus)
	if len(want.Events) == 0 {
		t.Fatal("reference run published no events — probes or mechanisms never fired")
	}

	cases := []struct {
		name    string
		workers int
	}{
		{"advance sequential", 1},
		{"advance workers=4", 4},
	}
	for _, tc := range cases {
		f, bus := stretchFleet(t, tc.workers)
		f.Advance(quanta)
		got := stretchObservables(f, bus)
		diffObservables(t, tc.name, want, got)
		for m, r := range f.Rigs {
			if !reflect.DeepEqual(r.Probe.Samples(), ref.Rigs[m].Probe.Samples()) {
				t.Fatalf("%s: machine %d probe samples diverged", tc.name, m)
			}
		}
	}
}

// TestFleetAdvanceStretchesPastOne: the guard rail for the test above —
// a coordinator-less fleet must actually take multi-quantum stretches,
// otherwise the equivalence proves nothing about decoupled execution.
func TestFleetAdvanceStretchesPastOne(t *testing.T) {
	f, _ := stretchFleet(t, 1)
	f.Tick() // land just past cycle 0 so the next due times are ahead
	if s := f.safeStretch(1 << 20); s <= 1 {
		t.Fatalf("safeStretch = %d, want > 1: the stretch engine never decouples", s)
	}
	// And with nothing due at all, the stretch is unbounded up to max.
	bare, err := NewFleet(Options{Machines: 2, SF: 0.002, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := bare.safeStretch(1000); s != 1000 {
		t.Fatalf("bare fleet safeStretch = %d, want the full 1000", s)
	}
}
