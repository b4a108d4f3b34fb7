package numa

import (
	"testing"
	"testing/quick"
)

func TestOpteron8387Valid(t *testing.T) {
	topo := Opteron8387()
	if err := topo.Validate(); err != nil {
		t.Fatalf("default topology invalid: %v", err)
	}
	if got := topo.TotalCores(); got != 16 {
		t.Errorf("TotalCores = %d, want 16", got)
	}
}

func TestNodeOfCoreOfRoundTrip(t *testing.T) {
	topo := Opteron8387()
	for n := 0; n < topo.NodeCount; n++ {
		for j := 0; j < topo.CoresPerNode; j++ {
			c := topo.CoreOf(NodeID(n), j)
			if got := topo.NodeOf(c); got != NodeID(n) {
				t.Errorf("NodeOf(CoreOf(%d,%d)) = %d, want %d", n, j, got, n)
			}
		}
	}
}

func TestCoreOfMatchesPaperFormula(t *testing.T) {
	// Section IV-B.1: core(i, j) = d*i + j with d = 4 on the 4-node
	// Opteron machine.
	topo := Opteron8387()
	d := topo.CoresPerNode
	for i := 0; i < topo.NodeCount; i++ {
		for j := 0; j < d; j++ {
			want := CoreID(d*i + j)
			if got := topo.CoreOf(NodeID(i), j); got != want {
				t.Errorf("CoreOf(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestCoresEnumeration(t *testing.T) {
	topo := Opteron8387()
	seen := make(map[CoreID]bool)
	for n := 0; n < topo.NodeCount; n++ {
		for _, c := range topo.Cores(NodeID(n)) {
			if seen[c] {
				t.Fatalf("core %d enumerated twice", c)
			}
			seen[c] = true
		}
	}
	if len(seen) != topo.TotalCores() {
		t.Errorf("enumerated %d cores, want %d", len(seen), topo.TotalCores())
	}
}

func TestDistanceSymmetric(t *testing.T) {
	topo := Opteron8387()
	for i := 0; i < topo.NodeCount; i++ {
		for j := 0; j < topo.NodeCount; j++ {
			if topo.Hops(NodeID(i), NodeID(j)) != topo.Hops(NodeID(j), NodeID(i)) {
				t.Errorf("Hops(%d,%d) != Hops(%d,%d)", i, j, j, i)
			}
		}
		if topo.Hops(NodeID(i), NodeID(i)) != 0 {
			t.Errorf("Hops(%d,%d) != 0", i, i)
		}
	}
}

func TestValidateRejectsBadTopologies(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Topology)
	}{
		{"zero nodes", func(tp *Topology) { tp.NodeCount = 0 }},
		{"zero cores", func(tp *Topology) { tp.CoresPerNode = 0 }},
		{"zero clock", func(tp *Topology) { tp.ClockHz = 0 }},
		{"block not multiple of page", func(tp *Topology) { tp.BlockBytes = tp.PageBytes + 1 }},
		{"L3 smaller than block", func(tp *Topology) { tp.L3Bytes = tp.BlockBytes - 1 }},
		{"negative bandwidth", func(tp *Topology) { tp.HTBandwidth = -1 }},
		{"short distance matrix", func(tp *Topology) { tp.Distance = tp.Distance[:2] }},
		{"nonzero diagonal", func(tp *Topology) { tp.Distance[1][1] = 3 }},
		{"asymmetric distance", func(tp *Topology) { tp.Distance[0][1] = 7 }},
		{"L3 of 65535 blocks", func(tp *Topology) { tp.L3Bytes = 65535 * tp.BlockBytes }},
		{"private cache of 65535 blocks", func(tp *Topology) { tp.L2Bytes = 65535*tp.BlockBytes - tp.L1Bytes }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := Opteron8387()
			tc.mutate(topo)
			if err := topo.Validate(); err == nil {
				t.Error("Validate accepted an invalid topology")
			}
		})
	}
}

// TestValidateAcceptsLargestCaches: the bounds of the packed per-block
// state are tight — 32 nodes and caches of 65534 blocks pass.
func TestValidateAcceptsLargestCaches(t *testing.T) {
	topo, err := ParseTopology("32x1")
	if err != nil {
		t.Fatal(err)
	}
	big := *topo
	big.L3Bytes = 65534 * big.BlockBytes
	big.L1Bytes, big.L2Bytes = big.BlockBytes, 65533*big.BlockBytes
	if err := big.Validate(); err != nil {
		t.Fatalf("Validate rejected 32 nodes with 65534-block caches: %v", err)
	}
	// A core of the last node maps its block like any other: one fault at
	// first touch, none on the second access.
	m := NewMachine(topo)
	r := m.Memory().Alloc(1)
	last := topo.CoreOf(31, 0)
	m.Access(last, Access{Block: r.Block(0), Bytes: 64, PID: 1})
	faults := m.Snapshot().TotalMinorFaults()
	m.Access(last, Access{Block: r.Block(0), Bytes: 64, PID: 1})
	if got := m.Snapshot().TotalMinorFaults(); got != faults {
		t.Errorf("second access from node 31 faulted again: %d -> %d", faults, got)
	}
}

func TestCyclesSecondsRoundTrip(t *testing.T) {
	topo := Opteron8387()
	if err := quick.Check(func(ms uint16) bool {
		s := float64(ms) * 1e-3
		cycles := topo.SecondsToCycles(s)
		back := topo.CyclesToSeconds(cycles)
		diff := back - s
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestUnitsDerived(t *testing.T) {
	topo := Opteron8387()
	if got := topo.PagesPerBlock(); got != topo.BlockBytes/topo.PageBytes {
		t.Errorf("PagesPerBlock = %d", got)
	}
	if got := topo.LinesPerBlock(); got != topo.BlockBytes/topo.CacheLineBytes {
		t.Errorf("LinesPerBlock = %d", got)
	}
}
