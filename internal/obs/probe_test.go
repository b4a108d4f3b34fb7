package obs

import (
	"reflect"
	"testing"

	"elasticore/internal/metrics"
	"elasticore/internal/numa"
)

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

// TestProbeLatencyQuantiles: an attached histogram supplies P50/P99 via
// the batch accessor, matching the per-quantile API exactly.
func TestProbeLatencyQuantiles(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	p := NewProbe(ProbeConfig{Machine: machine, Every: 100})
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

// TestProbeSampleZeroAlloc: without a latency histogram (whose Quantiles
// returns a fresh slice) a sample reads the reusable counter window,
// prices it and records a flat Snapshot; nothing is allocated. The
// timeline's amortised growth is not a per-sample cost and is pre-sized
// away here.
func TestProbeSampleZeroAlloc(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	p := NewProbe(ProbeConfig{
		Machine:   machine,
		Every:     1000,
		Allocated: func() int { return 4 },
		Reading:   func(numa.Counters) int { return 42 },
		Backlog:   func() int { return 0 },
	})
	p.samples = make([]Snapshot, 0, 1024)
	allocs := testing.AllocsPerRun(500, func() {
		machine.AdvanceTime(1000)
		machine.ChargeBusy(0, 600)
		p.Sample()
	})
	if allocs != 0 {
		t.Fatalf("Sample allocated %v times per call, want 0", allocs)
	}
	if last := p.samples[len(p.samples)-1]; last.EnergyJoules <= 0 || last.Allocated != 4 {
		t.Fatalf("last sample = %+v, want a priced window with 4 cores", last)
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
			seen = append(seen, w.Clone())
			return int(w.TotalIMCBytes())
		},
	})
	beside := machine.NewCounterWindow()
	for i := 0; i < 6; i++ {
		machine.AdvanceTime(500)
		machine.ChargeBusy(numa.CoreID(i), uint64(100+i))
		machine.Access(numa.CoreID(15), numa.Access{Block: numa.BlockID(i), Bytes: 64, PID: 1})
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
