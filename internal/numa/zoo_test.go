package numa

import (
	"strings"
	"testing"
)

// zoo_test.go covers the topology zoo: every constructor must be
// Validate-clean with the structural properties its doc comment claims,
// and ParseTopology must round-trip well-formed specs while rejecting
// malformed ones with actionable errors.

func TestZooTopologiesValid(t *testing.T) {
	for name, topo := range Zoo() {
		if err := topo.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if topo.TotalCores() > 63 {
			t.Errorf("%s: %d cores exceed the cpuset mask", name, topo.TotalCores())
		}
	}
}

func TestZooShapes(t *testing.T) {
	cases := []struct {
		name         string
		build        func() *Topology
		nodes, cores int
		diameter     int
	}{
		{"TwoSocket", TwoSocket, 2, 8, 1},
		{"FourSocketRing", FourSocketRing, 4, 4, 2},
		{"EightSocketTwisted", EightSocketTwisted, 8, 4, 2},
		{"EPYCLike", EPYCLike, 8, 4, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := tc.build()
			if topo.NodeCount != tc.nodes || topo.CoresPerNode != tc.cores {
				t.Errorf("shape = %dx%d, want %dx%d",
					topo.NodeCount, topo.CoresPerNode, tc.nodes, tc.cores)
			}
			if got := topo.Diameter(); got != tc.diameter {
				t.Errorf("diameter = %d, want %d", got, tc.diameter)
			}
		})
	}
}

// TestTwistedLadderBeatsStraightLadder pins the property the twist
// exists for: crossing the wrap-around links cuts the 8-socket diameter
// from three hops to two.
func TestTwistedLadderBeatsStraightLadder(t *testing.T) {
	straight := [][2]int{
		{0, 1}, {2, 3}, {4, 5}, {6, 7},
		{0, 2}, {2, 4}, {4, 6},
		{1, 3}, {3, 5}, {5, 7},
		{6, 0}, {7, 1}, // uncrossed wrap-around
	}
	sd := linkDistances(8, straight)
	maxStraight := 0
	for _, row := range sd {
		for _, h := range row {
			if h > maxStraight {
				maxStraight = h
			}
		}
	}
	if maxStraight <= EightSocketTwisted().Diameter() {
		t.Errorf("straight-ladder diameter %d not worse than twisted %d",
			maxStraight, EightSocketTwisted().Diameter())
	}
}

// TestEPYCIntraPackageAsymmetry pins the chiplet property: distances
// within one package are not uniform (substrate neighbours vs diagonal).
func TestEPYCIntraPackageAsymmetry(t *testing.T) {
	topo := EPYCLike()
	if topo.Hops(0, 1) == topo.Hops(0, 2) {
		t.Errorf("intra-package hops uniform (%d == %d); want adjacent != diagonal",
			topo.Hops(0, 1), topo.Hops(0, 2))
	}
	if topo.Hops(0, 4) >= topo.Hops(0, 5) {
		t.Errorf("cross-package partner (%d hops) not cheaper than non-partner (%d hops)",
			topo.Hops(0, 4), topo.Hops(0, 5))
	}
}

func TestParseTopologyNames(t *testing.T) {
	for _, name := range ZooNames() {
		topo, err := ParseTopology(name)
		if err != nil {
			t.Errorf("ParseTopology(%q): %v", name, err)
			continue
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("ParseTopology(%q) invalid: %v", name, err)
		}
	}
	// Aliases and case-insensitivity.
	for _, alias := range []string{"Opteron8387", "TWOSOCKET", "EightSocketTwisted", "epyclike"} {
		if _, err := ParseTopology(alias); err != nil {
			t.Errorf("ParseTopology(%q): %v", alias, err)
		}
	}
}

func TestParseTopologySpecs(t *testing.T) {
	topo, err := ParseTopology("2x8")
	if err != nil {
		t.Fatal(err)
	}
	if topo.NodeCount != 2 || topo.CoresPerNode != 8 || topo.Hops(0, 1) != 1 {
		t.Errorf("2x8 parsed as %dx%d hops=%d", topo.NodeCount, topo.CoresPerNode, topo.Hops(0, 1))
	}

	// Explicit upper-triangle hops, whitespace-tolerant.
	topo, err = ParseTopology(" 4 x 4 @ 1 2 1 1 2 1 ")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{
		{0, 1, 2, 1},
		{1, 0, 1, 2},
		{2, 1, 0, 1},
		{1, 2, 1, 0},
	}
	for i := range want {
		for j := range want[i] {
			if topo.Distance[i][j] != want[i][j] {
				t.Errorf("Distance[%d][%d] = %d, want %d", i, j, topo.Distance[i][j], want[i][j])
			}
		}
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("spec topology invalid: %v", err)
	}
}

// TestParseTopologySingleNode: a single-node machine is a legal — if
// degenerate — shape: no interconnect, every access local.
func TestParseTopologySingleNode(t *testing.T) {
	topo, err := ParseTopology("1x4")
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("single-node topology invalid: %v", err)
	}
	if topo.Diameter() != 0 {
		t.Errorf("single-node diameter = %d", topo.Diameter())
	}
	// The machine model must accept it end to end.
	m := NewMachine(topo)
	if m.Topology().TotalCores() != 4 {
		t.Errorf("machine cores = %d, want 4", m.Topology().TotalCores())
	}
}

func TestParseTopologyRejectsMalformedSpecs(t *testing.T) {
	cases := []struct {
		spec, wantSub string
	}{
		{"", "empty topology spec"},
		{"4", "shape"},
		{"4x4x4", "shape"},
		{"0x4", "bad node count"},
		{"-1x4", "bad node count"},
		{"4x0", "bad cores-per-node"},
		{"axb", "bad node count"},
		{"4xb", "bad cores-per-node"},
		{"8x8", "cpuset limit"},
		// 40 cores fit the cpuset, 40 nodes do not fit a block's
		// mapped-node mask: nodes 32-39 would fault on every access.
		{"40x1", "NodeCount 40 exceeds 32"},
		{"4x4 @ 1 2 1", "hop entries, want 6"},
		{"4x4 @ 1 2 1 1 2 1 9", "hop entries, want 6"},
		{"4x4 @ 1 2 1 1 2 x", "bad hop count"},
		{"4x4 @ 1 2 1 1 2 0", "bad hop count"},
		{"4x4 @ 1 2 1 1 2 -3", "bad hop count"},
		{"no-such-topology", "shape"},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			_, err := ParseTopology(tc.spec)
			if err == nil {
				t.Fatalf("ParseTopology(%q) accepted", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestValidateZooEdgeCases extends the Validate suite with the shapes
// the zoo exposes: single-node matrices, asymmetric and non-zero
// diagonal distance entries on larger machines.
func TestValidateZooEdgeCases(t *testing.T) {
	single, err := ParseTopology("1x2")
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Validate(); err != nil {
		t.Errorf("single-node machine rejected: %v", err)
	}

	eight := EightSocketTwisted()
	eight.Distance[3][5] = 9 // breaks symmetry with [5][3]
	if err := eight.Validate(); err == nil {
		t.Error("asymmetric 8-node distance matrix accepted")
	}

	epyc := EPYCLike()
	epyc.Distance[6][6] = 1
	if err := epyc.Validate(); err == nil {
		t.Error("non-zero diagonal accepted")
	}

	ring := FourSocketRing()
	ring.Distance[0][2] = -2
	ring.Distance[2][0] = -2
	if err := ring.Validate(); err == nil {
		t.Error("negative hop distance accepted")
	}
}
