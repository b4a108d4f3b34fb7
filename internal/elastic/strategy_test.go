package elastic

import (
	"testing"

	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

func sampleWith(busy, idle uint64, ht, imc uint64) Sample {
	c := numa.Counters{
		Nodes: []numa.NodeCounters{{HTBytesOut: ht, IMCBytes: imc}},
		Cores: make([]numa.CoreCounters, 16),
	}
	c.Cores[0] = numa.CoreCounters{BusyCycles: busy, IdleCycles: idle}
	return Sample{Window: c, Allocated: sched.NewCPUSet(0)}
}

func TestCPULoadReading(t *testing.T) {
	s := CPULoadStrategy{}
	if got := s.Reading(sampleWith(75, 25, 0, 0)); got != 75 {
		t.Errorf("Reading = %d, want 75", got)
	}
	if got := s.Reading(sampleWith(0, 0, 0, 0)); got != 0 {
		t.Errorf("empty Reading = %d, want 0", got)
	}
}

func TestCPULoadAveragesOnlyAllocatedCores(t *testing.T) {
	c := numa.Counters{Cores: make([]numa.CoreCounters, 16)}
	c.Cores[0] = numa.CoreCounters{BusyCycles: 100} // 100% busy
	c.Cores[5] = numa.CoreCounters{IdleCycles: 100} // 0% busy, not allocated
	s := CPULoadStrategy{}
	got := s.Reading(Sample{Window: c, Allocated: sched.NewCPUSet(0)})
	if got != 100 {
		t.Errorf("Reading over allocated core = %d, want 100", got)
	}
	got = s.Reading(Sample{Window: c, Allocated: sched.NewCPUSet(0, 5)})
	if got != 50 {
		t.Errorf("Reading over two cores = %d, want 50", got)
	}
}

func TestCPULoadThresholds(t *testing.T) {
	min, max := CPULoadStrategy{}.Thresholds()
	if min != 10 || max != 70 {
		t.Errorf("default thresholds = (%d,%d), want (10,70)", min, max)
	}
	min, max = CPULoadStrategy{ThMin: 5, ThMax: 95}.Thresholds()
	if min != 5 || max != 95 {
		t.Errorf("override thresholds = (%d,%d)", min, max)
	}
}

func TestHTIMCReadingScaled(t *testing.T) {
	s := HTIMCStrategy{}
	// ratio 0.25 -> 250 in the milli domain.
	if got := s.Reading(sampleWith(0, 0, 250, 1000)); got != 250 {
		t.Errorf("Reading = %d, want 250", got)
	}
	if got := s.Reading(sampleWith(0, 0, 100, 0)); got != 0 {
		t.Errorf("Reading with zero IMC = %d, want 0", got)
	}
}

func TestHTIMCThresholds(t *testing.T) {
	min, max := HTIMCStrategy{}.Thresholds()
	if min != 100 || max != 400 {
		t.Errorf("default thresholds = (%d,%d), want (100,400) — the paper's 0.1/0.4", min, max)
	}
}
