package workload

import (
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/tpch"
)

func mustRig(t *testing.T, opts Options) *Rig {
	t.Helper()
	if opts.SF == 0 {
		opts.SF = 0.002
	}
	r, err := NewRig(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDriverRunsConcurrentClients(t *testing.T) {
	r := mustRig(t, Options{Mode: ModeOS})
	d := &Driver{Rig: r, QueriesPerClient: 2}
	res := d.RunSameQuery(4, tpch.BuildQ6)
	if res.Completed != 8 {
		t.Errorf("completed %d queries, want 8", res.Completed)
	}
	if res.Throughput <= 0 || res.ElapsedSeconds <= 0 {
		t.Errorf("throughput %g over %gs", res.Throughput, res.ElapsedSeconds)
	}
	if res.MeanLatencySeconds <= 0 {
		t.Error("zero mean latency")
	}
	if res.Window.TotalIMCBytes() == 0 {
		t.Error("phase window has no memory traffic")
	}
}

// TestBroadcastWakeupsOutnumberTasks puts a number on the thread churn of
// the paper's Figures 4 and 5: under PlacementOS every stage fan-out
// wakes every parked worker of every query, so most wake-ups find
// nothing to do. A model change to targeted wake-ups would flip this
// inequality; it has to do so knowingly.
func TestBroadcastWakeupsOutnumberTasks(t *testing.T) {
	r := mustRig(t, Options{Mode: ModeOS})
	tasksBefore := r.Engine.TasksExecuted
	d := &Driver{Rig: r, QueriesPerClient: 2}
	res := d.RunSameQuery(8, tpch.BuildQ6)
	tasks := r.Engine.TasksExecuted - tasksBefore
	if res.Completed != 16 || tasks == 0 {
		t.Fatalf("completed %d queries over %d tasks; rig broken", res.Completed, tasks)
	}
	if res.Sched.SpuriousWakeups <= tasks {
		t.Errorf("%d spurious wake-ups for %d executed tasks, want the herd to outnumber the work",
			res.Sched.SpuriousWakeups, tasks)
	}
	if res.Sched.SpuriousWakeups > res.Sched.Wakeups {
		t.Errorf("%d spurious of %d wake-ups", res.Sched.SpuriousWakeups, res.Sched.Wakeups)
	}
	t.Logf("%d tasks, %d wake-ups, %d spurious", tasks, res.Sched.Wakeups, res.Sched.SpuriousWakeups)
}

func TestModesProduceDifferentAllocations(t *testing.T) {
	for _, mode := range []Mode{ModeDense, ModeSparse, ModeAdaptive} {
		r := mustRig(t, Options{Mode: mode})
		if r.Mech == nil {
			t.Fatalf("%v rig has no mechanism", mode)
		}
		if got := r.AllocatedCores(); got != 1 {
			t.Errorf("%v initial cores = %d, want 1", mode, got)
		}
		d := &Driver{Rig: r, QueriesPerClient: 1}
		d.RunSameQuery(16, tpch.BuildQ6)
		if len(r.Mech.Events()) == 0 {
			t.Errorf("%v recorded no transitions", mode)
		}
	}
	osRig := mustRig(t, Options{Mode: ModeOS})
	if osRig.Mech != nil {
		t.Error("OS rig must have no mechanism")
	}
	if got := osRig.AllocatedCores(); got != 16 {
		t.Errorf("OS rig cores = %d, want all 16", got)
	}
}

func TestDriverSampling(t *testing.T) {
	r := mustRig(t, Options{Mode: ModeAdaptive})
	d := &Driver{Rig: r, QueriesPerClient: 4, SampleEvery: 0.0005}
	res := d.RunSameQuery(16, tpch.BuildQ6)
	if len(res.Samples) == 0 {
		t.Fatal("no timeline samples recorded")
	}
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].AtSeconds <= res.Samples[i-1].AtSeconds {
			t.Error("samples not time-ordered")
		}
	}
	for _, s := range res.Samples {
		if s.Allocated < 1 || s.Allocated > 16 {
			t.Errorf("sample allocation %d out of range", s.Allocated)
		}
	}
}

func TestStablePhasesCoversAllQueries(t *testing.T) {
	r := mustRig(t, Options{Mode: ModeOS})
	phases := StablePhases(r, 2, 0)
	if len(phases) != tpch.QueryCount {
		t.Fatalf("%d phases, want %d", len(phases), tpch.QueryCount)
	}
	for _, p := range phases {
		if p.Completed != 2 {
			t.Errorf("Q%d completed %d, want 2", p.QueryNumber, p.Completed)
		}
	}
}

func TestMixedPhasesRatioComputed(t *testing.T) {
	// ModeOS scatters 16 workers across all nodes, guaranteeing remote
	// traffic on shared base columns.
	r := mustRig(t, Options{Mode: ModeOS})
	phases := MixedPhases(r, 2)
	if len(phases) != tpch.QueryCount {
		t.Fatalf("%d phases, want %d", len(phases), tpch.QueryCount)
	}
	anyTraffic := false
	for _, p := range phases {
		if p.HTIMCRatio() > 0 {
			anyTraffic = true
		}
	}
	if !anyTraffic {
		t.Error("no phase produced interconnect traffic")
	}
}

func TestRandomStreamDeterministic(t *testing.T) {
	run := func() PhaseResult {
		r := mustRig(t, Options{Mode: ModeOS, Seed: 5})
		return RandomStream(r, 3, 2)
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.ElapsedSeconds != b.ElapsedSeconds {
		t.Errorf("random stream not deterministic: %+v vs %+v", a, b)
	}
	if a.Completed != 6 {
		t.Errorf("completed %d, want 6", a.Completed)
	}
}

func TestNUMAAwareRigWorks(t *testing.T) {
	r := mustRig(t, Options{Mode: ModeAdaptive, Placement: db.PlacementNUMAAware})
	d := &Driver{Rig: r, QueriesPerClient: 1}
	res := d.RunSameQuery(4, tpch.BuildQ6)
	if res.Completed != 4 {
		t.Errorf("completed %d, want 4", res.Completed)
	}
}
