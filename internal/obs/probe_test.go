package obs

import (
	"reflect"
	"slices"
	"testing"

	"elasticore/internal/metrics"
	"elasticore/internal/numa"
)

// busyScheduler is a scheduler that always has a thread to run, so a probe
// never reaches its quiet fixed point and reads every due sample.
type busyScheduler struct{}

func (busyScheduler) Idle() bool      { return false }
func (busyScheduler) Ticked() uint64  { return 0 }
func (busyScheduler) Quantum() uint64 { return 1 }

// TestProbeCadence: Maybe samples once per interval, never between, and
// each snapshot reflects the callbacks and the counter window.
func TestProbeCadence(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	cores := 3
	p := NewProbe(ProbeConfig{
		Machine:   machine,
		Every:     1000,
		Allocated: func() int { return cores },
		Reading:   func(numa.Counters) int { return 42 },
		Backlog:   func() int { return 7 },
		Scheduler: busyScheduler{},
	})

	p.Maybe()
	if len(p.Samples()) != 0 {
		t.Fatal("sampled before the first interval elapsed")
	}
	for i := 0; i < 5; i++ {
		machine.AdvanceTime(500)
		machine.ChargeBusy(0, 500)
		p.Maybe()
		p.Maybe() // second call in the same tick must not double-sample
	}
	samples := p.Samples()
	// 2500 cycles at one sample per 1000: due at 1000 and 2000.
	if len(samples) != 2 {
		t.Fatalf("recorded %d samples over 2500 cycles at interval 1000, want 2", len(samples))
	}
	s := samples[0]
	if s.Now != 1000 || s.Allocated != 3 || s.Load != 42 || s.Backlog != 7 {
		t.Fatalf("sample = %+v, want Now=1000 Allocated=3 Load=42 Backlog=7", s)
	}
	if s.EnergyJoules <= 0 {
		t.Fatalf("busy window priced at %v J, want > 0", s.EnergyJoules)
	}
}

// TestProbeLatencyQuantiles: an attached histogram supplies P50/P99,
// matching the per-quantile API exactly.
func TestProbeLatencyQuantiles(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	p := NewProbe(ProbeConfig{Machine: machine, Every: 100, Scheduler: busyScheduler{}})
	var h metrics.Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Record(v)
	}
	p.SetLatency(&h)
	machine.AdvanceTime(100)
	p.Maybe()
	samples := p.Samples()
	if len(samples) != 1 {
		t.Fatalf("recorded %d samples, want 1", len(samples))
	}
	if want := h.Quantile(0.50); samples[0].P50 != want {
		t.Fatalf("P50 = %d, want %d", samples[0].P50, want)
	}
	if want := h.Quantile(0.99); samples[0].P99 != want {
		t.Fatalf("P99 = %d, want %d", samples[0].P99, want)
	}
}

// TestProbeQuantilesFollowHistogram: the probe keeps the last (P50, P99)
// and re-walks the buckets only for a changed histogram, so every sample
// must still equal a fresh Quantiles(0.50, 0.99) — across records between
// samples, quiet samples, a Reset refilled to the same count with other
// values (which a memo keyed on Count() alone would serve stale), a Merge,
// and SetLatency to another histogram of the same count.
func TestProbeQuantilesFollowHistogram(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	p := NewProbe(ProbeConfig{Machine: machine, Every: 100, Scheduler: busyScheduler{}})
	var h, other metrics.Histogram
	p.SetLatency(&h)
	step := 0
	sample := func(what string) {
		t.Helper()
		step++
		machine.AdvanceTime(100)
		p.Maybe()
		if len(p.Samples()) != step {
			t.Fatalf("%s: %d samples after %d intervals", what, len(p.Samples()), step)
		}
		want := p.latency.Quantiles(0.50, 0.99)
		if got := p.Samples()[step-1]; got.P50 != want[0] || got.P99 != want[1] {
			t.Fatalf("%s: sample has P50 %d P99 %d, the histogram %d %d", what, got.P50, got.P99, want[0], want[1])
		}
	}
	sample("empty")
	for v := uint64(1); v <= 100; v++ {
		h.Record(v)
	}
	sample("first fill")
	sample("quiet")
	h.Record(1 << 20)
	sample("one record")
	h.Reset()
	sample("reset")
	for v := uint64(1); v <= 101; v++ {
		h.Record(1000 * v)
	}
	sample("refilled to the same count")
	for v := uint64(1); v <= 101; v++ {
		other.Record(7 * v)
	}
	h.Merge(&other)
	sample("merge")
	h.Reset()
	for v := uint64(1); v <= 101; v++ {
		h.Record(3 * v)
	}
	p.SetLatency(&other)
	sample("another histogram of the same count")
	p.SetLatency(&h)
	sample("and back")
	// Two histograms with equal histories in all but the values: nothing a
	// histogram counts tells them apart, only SetLatency does.
	var a, b metrics.Histogram
	for v := uint64(1); v <= 50; v++ {
		a.Record(v)
		b.Record(v << 10)
	}
	p.SetLatency(&a)
	sample("twin a")
	p.SetLatency(&b)
	sample("twin b")
	p.SetLatency(nil)
	machine.AdvanceTime(100)
	p.Maybe()
	if got := p.Samples()[step]; got.P50 != 0 || got.P99 != 0 {
		t.Fatalf("detached: sample has P50 %d P99 %d, want zeros", got.P50, got.P99)
	}
}

// TestProbeSampleZeroAlloc: a sample reads the reusable counter window,
// prices it, takes the latency quantiles (kept from the last sample, or
// re-walked for a histogram that changed) and records a flat Snapshot;
// nothing is allocated. The timeline's amortised growth is not a
// per-sample cost and is pre-sized away here.
func TestProbeSampleZeroAlloc(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	p := NewProbe(ProbeConfig{
		Machine:   machine,
		Every:     1000,
		Allocated: func() int { return 4 },
		Reading:   func(numa.Counters) int { return 42 },
		Backlog:   func() int { return 0 },
		Scheduler: busyScheduler{},
	})
	var h metrics.Histogram
	p.SetLatency(&h)
	p.samples.Grow(2048)
	calls := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		machine.AdvanceTime(1000)
		machine.ChargeBusy(0, 600)
		if calls++; calls%2 == 0 { // every other sample finds a changed histogram
			h.Record(calls)
		}
		p.Sample()
	})
	if allocs != 0 {
		t.Fatalf("Sample allocated %v times per call, want 0", allocs)
	}
	samples := p.Samples()
	last := samples[len(samples)-1]
	if last.EnergyJoules <= 0 || last.Allocated != 4 {
		t.Fatalf("last sample = %+v, want a priced window with 4 cores", last)
	}
	if want := h.Quantiles(0.50, 0.99); last.P50 != want[0] || last.P99 != want[1] || last.P99 == 0 {
		t.Fatalf("last sample has P50 %d P99 %d, the histogram %v", last.P50, last.P99, want)
	}
}

// TestProbeReadingSeesTheSampleWindow: Reading is handed the window the
// sample itself advanced — exactly what a second CounterWindow created
// beside the probe and advanced at every sample would report — so a rig
// needs no window of its own for the strategy reading.
func TestProbeReadingSeesTheSampleWindow(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	machine.Memory().AllocOn(64, 0, 1)
	var seen []numa.Counters
	p := NewProbe(ProbeConfig{
		Machine: machine,
		Every:   1000,
		Reading: func(w numa.Counters) int {
			seen = append(seen, numa.Counters{Now: w.Now, Nodes: slices.Clone(w.Nodes), Cores: slices.Clone(w.Cores)})
			return int(w.TotalIMCBytes())
		},
		Scheduler: busyScheduler{},
	})
	beside := machine.NewCounterWindow()
	for i := 0; i < 6; i++ {
		machine.AdvanceTime(500)
		machine.ChargeBusy(numa.CoreID(i), uint64(100+i))
		machine.AccessRange(numa.CoreID(15), numa.RangeAccess{Start: numa.BlockID(i), Blocks: 1, FirstBytes: 64, PID: 1})
		n := len(seen)
		p.Maybe()
		if len(seen) == n {
			continue
		}
		want := beside.Advance()
		if !reflect.DeepEqual(seen[n], want) {
			t.Fatalf("sample %d: Reading saw %+v, a window advanced beside the probe %+v", n, seen[n], want)
		}
		if s := p.Samples()[n]; s.Load != int(want.TotalIMCBytes()) || s.IMCBytes != want.TotalIMCBytes() || s.Load == 0 {
			t.Fatalf("sample %d = %+v, want Load = IMCBytes = %d", n, s, want.TotalIMCBytes())
		}
	}
	if len(seen) != 3 {
		t.Fatalf("Reading ran %d times over 3000 cycles at interval 1000, want 3", len(seen))
	}
}

// TestZeroConfigReadsTimebase: a zero Every is the machine's timebase
// control period.
func TestZeroConfigReadsTimebase(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	p := NewProbe(ProbeConfig{Machine: machine, Scheduler: busyScheduler{}})
	if got, want := p.cfg.Every, machine.Timebase().ControlPeriod; got != want {
		t.Errorf("interval %d, want the timebase's %d", got, want)
	}
}
