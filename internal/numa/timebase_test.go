package numa_test

import (
	"fmt"
	"testing"

	"elasticore/internal/numa"
	"elasticore/internal/workload"
)

// TestTimebase pins every entry to the integer the per-layer literal it
// replaced produced at the 2.8 GHz clock, on every zoo topology and on the
// SF-scaled testbed at three scale factors. Each entry converts its own
// literal: FrontEnd is 419 999, one cycle short of three quanta. That a
// zero config reads its entry is each layer's own test.
func TestTimebase(t *testing.T) {
	want := numa.Timebase{
		Quantum:       140_000,           // 50 us
		ControlPeriod: 700_000,           // 0.25 ms
		FleetPeriod:   2_800_000,         // 1 ms
		Migrate:       2_800_000,         // 1 ms
		FrontEnd:      419_999,           // 150 us
		Claim:         84_000,            // 30 us
		Window:        2_800_000,         // 1 ms
		Heartbeat:     2_800_000,         // 1 ms
		Transfer:      22_400_000,        // 8 ms
		Deadline:      1_680_000_000_000, // 600 s
	}
	topos := numa.Zoo()
	for _, sf := range []float64{0.002, 0.04, 1} {
		topos[fmt.Sprintf("scaled SF %g", sf)] = workload.ScaledTopology(sf)
	}
	for name, topo := range topos {
		if got := numa.NewMachine(topo).Timebase(); got != want {
			t.Errorf("%s: timebase %+v, want %+v", name, got, want)
		}
	}
}
