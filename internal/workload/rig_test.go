package workload

import (
	"strings"
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/numa"
	"elasticore/internal/tpch"
)

func TestTouchDeltaResidencyFirstSampleAndDeltas(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	res := touchDeltaResidency(machine)

	// Home two blocks on node 2 and touch them: the touches land in node
	// 2's DataTouches counter.
	region := machine.Memory().AllocOn(2, 2, 1)
	machine.AccessRange(0, numa.RangeAccess{Start: region.Block(0), Blocks: 1, FirstBytes: 64, PID: 1})
	machine.AccessRange(0, numa.RangeAccess{Start: region.Block(1), Blocks: 1, FirstBytes: 64, PID: 1})

	first := res()
	if len(first) != 4 {
		t.Fatalf("residency has %d nodes, want 4", len(first))
	}
	// First sample: the delta against an all-zero baseline, i.e. the
	// cumulative touches so far.
	if first[2] != 2 {
		t.Errorf("first sample node2 = %d, want the 2 cumulative touches", first[2])
	}
	for _, n := range []int{0, 1, 3} {
		if first[n] != 0 {
			t.Errorf("first sample node%d = %d, want 0", n, first[n])
		}
	}

	// No traffic in between: the second sample must be all zero, not the
	// cumulative counts again.
	second := res()
	for n, v := range second {
		if v != 0 {
			t.Errorf("quiet window node%d = %d, want 0", n, v)
		}
	}

	// One more touch: only the delta shows.
	machine.AccessRange(0, numa.RangeAccess{Start: region.Block(0), Blocks: 1, FirstBytes: 64, PID: 1})
	third := res()
	if third[2] != 1 {
		t.Errorf("third sample node2 = %d, want delta 1", third[2])
	}

	// Every sample is written into one vector, valid until the next call,
	// so sampling allocates nothing.
	if &third[0] != &first[0] {
		t.Error("a sample was written into a new vector")
	}
	if allocs := testing.AllocsPerRun(20, func() { res() }); allocs != 0 {
		t.Errorf("a sample allocated %v times, want 0", allocs)
	}
}

func TestNewRigAdaptiveMode(t *testing.T) {
	r, err := NewRig(Options{SF: 0.002, Mode: ModeAdaptive})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mech == nil {
		t.Fatal("adaptive rig has no mechanism")
	}
	// Drive a short burst so the adaptive allocator's residency source is
	// actually consulted under load.
	d := &Driver{Rig: r, QueriesPerClient: 1, MaxSeconds: 5}
	res := d.RunSameQuery(8, func(seed uint64) *db.Plan { return tpch.Build(6, seed) })
	if res.Completed == 0 {
		t.Error("no queries completed on the adaptive rig")
	}
	if len(r.Mech.Events()) == 0 {
		t.Error("mechanism never evaluated")
	}
}

// TestEveryModeBuilds: each Mode constant prints a distinct name, a rig
// runs the mechanism exactly when the mode is not ModeOS, and every
// mechanism mode also builds a consolidated tenant.
func TestEveryModeBuilds(t *testing.T) {
	seen := map[string]Mode{}
	for m := ModeOS; m <= ModeScatter; m++ {
		if prev, dup := seen[m.String()]; dup {
			t.Errorf("modes %d and %d both print %q", prev, m, m.String())
		}
		seen[m.String()] = m
		r, err := NewRig(Options{SF: 0.002, Mode: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if (r.Mech != nil) != (m != ModeOS) {
			t.Errorf("%v: rig has mechanism %v", m, r.Mech != nil)
		}
		if m == ModeOS {
			continue
		}
		mr, err := NewMultiRig(MultiOptions{Tenants: []TenantSpec{{SF: 0.002, Mode: m}}})
		if err != nil {
			t.Fatalf("%v tenant: %v", m, err)
		}
		if mr.Tenants[0].Mech == nil || mr.Tenants[0].Allocated().IsEmpty() {
			t.Errorf("%v tenant holds %v without a mechanism", m, mr.Tenants[0].Allocated())
		}
	}
}

// TestUnknownModeNamesItsValue: an out-of-range mode fails naming the
// value, not another mode.
func TestUnknownModeNamesItsValue(t *testing.T) {
	_, err := NewRig(Options{SF: 0.002, Mode: Mode(9)})
	if err == nil || !strings.Contains(err.Error(), "mode(9)") {
		t.Fatalf("err = %v, want one naming mode(9)", err)
	}
}
