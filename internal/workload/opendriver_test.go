package workload

import (
	"reflect"
	"testing"

	"elasticore/internal/arrivals"
	"elasticore/internal/tpch"
)

// openChaosProcess picks a different arrival pattern per seed, spanning
// the three stochastic process families at rates from under- to
// over-saturation (the SF 0.002 rig saturates near 750 q/s).
func openChaosProcess(seed uint64) arrivals.Process {
	switch seed % 3 {
	case 0:
		return arrivals.NewPoisson(400+200*float64(seed%5), seed)
	case 1:
		return arrivals.NewMMPP(250, 1400, 0.05, 0.02, seed)
	default:
		return arrivals.NewDiurnal(600, 0.7, 0.1, seed)
	}
}

// runOpenChaos drives one fresh rig through a scripted open-loop arrival
// pattern and returns the complete observable outcome.
func runOpenChaos(t *testing.T, seed uint64) OpenResult {
	t.Helper()
	r, err := NewRig(Options{SF: 0.002, Seed: 1, Mode: ModeAdaptive})
	if err != nil {
		t.Fatal(err)
	}
	d := &OpenDriver{
		Rig:         r,
		Process:     openChaosProcess(seed),
		MaxInFlight: 8,
		QueueCap:    32,
		MaxArrivals: 60,
		MaxSeconds:  0.5,
		SampleEvery: 0.02,
	}
	return d.RunSameQuery(tpch.BuildQ6)
}

// TestOpenDriverDeterministic: the same (seed, process, load) must yield
// an identical OpenResult across runs.
func TestOpenDriverDeterministic(t *testing.T) {
	a := runOpenChaos(t, 2)
	b := runOpenChaos(t, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("two identical open-loop runs produced different results")
	}
}

// TestOpenDriverAccounting pins the admission bookkeeping invariants.
func TestOpenDriverAccounting(t *testing.T) {
	res := runOpenChaos(t, 1)
	if res.Offered != res.Admitted+res.Dropped+res.Abandoned {
		t.Errorf("offered %d != admitted %d + dropped %d + abandoned %d",
			res.Offered, res.Admitted, res.Dropped, res.Abandoned)
	}
	if res.Completed > res.Admitted {
		t.Errorf("completed %d exceeds admitted %d", res.Completed, res.Admitted)
	}
	if got := res.Latency.Count(); got != uint64(res.Completed) {
		t.Errorf("latency histogram has %d samples, want %d completions", got, res.Completed)
	}
	if res.QueueWait.Count() != res.Service.Count() {
		t.Error("queue-wait and service histogram counts differ")
	}
	if res.Completed == 0 {
		t.Fatal("chaos run completed nothing")
	}
	// Total latency = wait + service per query, so the sums must match.
	wantMean := res.QueueWait.Mean() + res.Service.Mean()
	if got := res.Latency.Mean(); got != wantMean {
		t.Errorf("latency mean %g != wait+service mean %g", got, wantMean)
	}
}

// TestOpenDriverBoundedQueueDrops: an overload burst against a tiny
// queue must shed load instead of queueing without bound.
func TestOpenDriverBoundedQueueDrops(t *testing.T) {
	r, err := NewRig(Options{SF: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := &OpenDriver{
		Rig:         r,
		Process:     arrivals.NewPoisson(8000, 3), // ~10x saturation
		MaxInFlight: 4,
		QueueCap:    8,
		MaxArrivals: 200,
		MaxSeconds:  0.5,
	}
	res := d.RunSameQuery(tpch.BuildQ6)
	if res.Dropped == 0 {
		t.Error("10x overload against an 8-deep queue dropped nothing")
	}
	if res.PeakQueueDepth > 8 {
		t.Errorf("queue depth %d exceeded cap 8", res.PeakQueueDepth)
	}
	if res.PeakInFlight > 4 {
		t.Errorf("in-flight %d exceeded MaxInFlight 4", res.PeakInFlight)
	}
}

// TestOpenDriverBacklogGrowsAllocation: under the adaptive mechanism, a
// saturating arrival stream must grow the core allocation via the
// queue-pressure signal; with the signal disabled the counter path alone
// must not react faster. The comparison is peak allocated cores over the
// same arrival stream.
func TestOpenDriverBacklogGrowsAllocation(t *testing.T) {
	peak := func(disable bool) int {
		r, err := NewRig(Options{SF: 0.002, Seed: 1, Mode: ModeAdaptive})
		if err != nil {
			t.Fatal(err)
		}
		d := &OpenDriver{
			Rig:            r,
			Process:        arrivals.NewPoisson(1200, 9),
			MaxInFlight:    8,
			QueueCap:       128,
			MaxArrivals:    80,
			MaxSeconds:     0.5,
			SampleEvery:    0.005,
			DisableBacklog: disable,
		}
		res := d.RunSameQuery(tpch.BuildQ6)
		p := 0
		for _, s := range res.Samples {
			if s.Allocated > p {
				p = s.Allocated
			}
		}
		return p
	}
	withSignal := peak(false)
	if withSignal < 2 {
		t.Errorf("backlog signal grew allocation to %d cores under saturation, want >= 2", withSignal)
	}
	if without := peak(true); withSignal < without {
		t.Errorf("backlog signal (%d cores) reacted slower than counters alone (%d)", withSignal, without)
	}
}

// TestOpenDriverNilProcess: no arrivals means an immediate, empty phase.
func TestOpenDriverNilProcess(t *testing.T) {
	r, err := NewRig(Options{SF: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := &OpenDriver{Rig: r}
	res := d.RunSameQuery(tpch.BuildQ6)
	if res.Offered != 0 || res.Completed != 0 || res.Latency.Count() != 0 {
		t.Errorf("nil process produced offered=%d completed=%d", res.Offered, res.Completed)
	}
}
