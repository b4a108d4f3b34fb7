package obs_test

import (
	"testing"

	"elasticore/internal/metrics"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
)

// quiet_test.go drives a probe through a real scheduler, which imports obs,
// so it is an external test.

// finiteWork is a thread that runs for a fixed number of cycles and exits.
type finiteWork struct{ remaining uint64 }

func (w *finiteWork) Run(_ *sched.ExecContext, budget uint64) (uint64, bool, bool) {
	if w.remaining <= budget {
		used := w.remaining
		w.remaining = 0
		return used, false, true
	}
	w.remaining -= budget
	return budget, false, false
}

// probeRig is a probe watching every input its quiet fixed point reads: an
// idle scheduler, a cgroup's size, a backlog and a latency histogram. The
// interval is one cycle short of two quanta, so the stride is two quanta.
type probeRig struct {
	s       *sched.Scheduler
	g       *sched.CGroup
	backlog int
	latency metrics.Histogram
	p       *obs.Probe
}

// quietProbe returns a probe at its quiet fixed point that has already
// settled three samples.
func quietProbe(t *testing.T) *probeRig {
	t.Helper()
	machine := numa.NewMachine(numa.Opteron8387())
	s := sched.New(machine, sched.Config{})
	r := &probeRig{s: s, g: s.NewCGroup("dbms")}
	r.g.AddPID(1)
	r.p = obs.NewProbe(obs.ProbeConfig{
		Machine:   machine,
		Every:     2*s.Quantum() - 1,
		Allocated: func() int { return r.g.CPUs().Count() },
		Backlog:   func() int { return r.backlog },
		Scheduler: s,
	})
	r.latency.Record(1000)
	r.p.SetLatency(&r.latency)
	s.Advance(3) // three quanta: one more than the stride
	r.p.Maybe()
	if r.p.Quiet() {
		t.Fatal("quiet after a first window longer than the stride")
	}
	// Memory touched off the scheduler is activity too.
	region := machine.Memory().Alloc(1)
	machine.AccessRange(0, numa.RangeAccess{Start: region.Start, Blocks: 1, FirstBytes: 64})
	s.Advance(2)
	r.p.Maybe()
	if r.p.Quiet() {
		t.Fatal("quiet after a window in which memory was touched")
	}
	s.Advance(2)
	r.p.Maybe()
	if !r.p.Quiet() || r.p.Settled != 0 {
		t.Fatalf("not quiet after a stride-long idle window (settled %d)", r.p.Settled)
	}
	s.Advance(7) // samples due at 9, 11 and 13 quanta; the next at 15
	r.p.Maybe()
	samples := r.p.Samples()
	if !r.p.Quiet() || r.p.Settled != 3 || len(samples) != 6 {
		t.Fatalf("7 idle quanta (3 due samples) left quiet=%v, %d settled of %d samples", r.p.Quiet(), r.p.Settled, len(samples))
	}
	for j, s := range samples[3:] {
		want := samples[2]
		want.Now += uint64(j+1) * 2 * r.s.Quantum()
		if s != want {
			t.Fatalf("settled sample %d = %+v, want the calm one a stride later: %+v", j, s, want)
		}
	}
	return r
}

// TestProbeQuietEndsWhenAnInputMoves: each input the quiet fixed point
// reads ends it when it moves, and the next due sample is read from the
// counters, not settled.
func TestProbeQuietEndsWhenAnInputMoves(t *testing.T) {
	cases := []struct {
		name string
		move func(r *probeRig)
	}{
		{"submitted query", func(r *probeRig) { r.s.Spawn(1, "q1-w0", &finiteWork{remaining: r.s.Quantum() / 2}) }},
		{"idle Tick", func(r *probeRig) { r.s.Tick() }},
		{"cpuset resize", func(r *probeRig) { r.g.SetCPUs(r.g.CPUs().Remove(0)) }},
		{"backlog", func(r *probeRig) { r.backlog = 1 }},
		{"histogram record", func(r *probeRig) { r.latency.Record(1000) }},
		{"SetLatency", func(r *probeRig) { r.p.SetLatency(&r.latency) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := quietProbe(t)
			tc.move(r)
			if r.p.Quiet() {
				t.Fatal("still quiet")
			}
			settled, n := r.p.Settled, len(r.p.Samples())
			r.s.Advance(2)
			r.p.Maybe()
			if r.p.Settled != settled || len(r.p.Samples()) != n+1 {
				t.Fatalf("the next due sample was settled, not read (%d settled, %d samples, want %d and %d)",
					r.p.Settled, len(r.p.Samples()), settled, n+1)
			}
		})
	}
}
