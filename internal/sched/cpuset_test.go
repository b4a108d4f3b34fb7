package sched

import (
	"testing"
	"testing/quick"

	"elasticore/internal/numa"
)

func TestCPUSetBasics(t *testing.T) {
	s := NewCPUSet(0, 3, 5)
	if !s.Contains(0) || !s.Contains(3) || !s.Contains(5) {
		t.Error("set missing members")
	}
	if s.Contains(1) {
		t.Error("set contains non-member")
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
	s = s.Remove(3)
	if s.Contains(3) || s.Count() != 2 {
		t.Error("Remove failed")
	}
}

func TestFullSet(t *testing.T) {
	topo := numa.Opteron8387()
	s := FullSet(topo)
	if s.Count() != topo.TotalCores() {
		t.Errorf("FullSet count = %d, want %d", s.Count(), topo.TotalCores())
	}
	for c := 0; c < topo.TotalCores(); c++ {
		if !s.Contains(numa.CoreID(c)) {
			t.Errorf("FullSet missing core %d", c)
		}
	}
	if s.Contains(numa.CoreID(topo.TotalCores())) {
		t.Error("FullSet contains core beyond machine")
	}
}

func TestCPUSetCoresSorted(t *testing.T) {
	s := NewCPUSet(9, 2, 14, 0)
	cores := s.Cores()
	want := []numa.CoreID{0, 2, 9, 14}
	if len(cores) != len(want) {
		t.Fatalf("Cores = %v, want %v", cores, want)
	}
	for i := range want {
		if cores[i] != want[i] {
			t.Fatalf("Cores = %v, want %v", cores, want)
		}
	}
}

func TestCPUSetNodesTouched(t *testing.T) {
	topo := numa.Opteron8387()
	s := NewCPUSet(0, 1, 13) // node 0 twice, node 3 once
	nodes := s.NodesTouched(topo)
	if len(nodes) != 2 || nodes[0] != 0 || nodes[1] != 3 {
		t.Errorf("NodesTouched = %v, want [0 3]", nodes)
	}
	on0 := s.OnNode(topo, 0).Cores()
	if len(on0) != 2 || on0[0] != 0 || on0[1] != 1 {
		t.Errorf("OnNode(0) = %v", on0)
	}
}

func TestCPUSetString(t *testing.T) {
	cases := []struct {
		set  CPUSet
		want string
	}{
		{NewCPUSet(), "(empty)"},
		{NewCPUSet(4), "4"},
		{NewCPUSet(0, 1, 2, 3), "0-3"},
		{NewCPUSet(0, 2, 3, 4, 9), "0,2-4,9"},
	}
	for _, tc := range cases {
		if got := tc.set.String(); got != tc.want {
			t.Errorf("String(%b) = %q, want %q", tc.set, got, tc.want)
		}
	}
}

func TestCPUSetAlgebra(t *testing.T) {
	f := func(a, b uint16) bool {
		sa, sb := CPUSet(a), CPUSet(b)
		inter := sa.Intersect(sb)
		union := sa.Union(sb)
		// |A| + |B| == |A∪B| + |A∩B|
		return sa.Count()+sb.Count() == union.Count()+inter.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddRemoveRoundTrip(t *testing.T) {
	f := func(raw uint16, core uint8) bool {
		s := CPUSet(raw)
		c := numa.CoreID(core % 16)
		return s.Add(c).Remove(c).Add(c).Contains(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestOnNodeMatchesEnumeration pins the mask form to its definition — the
// members whose NodeOf is n — on every zoo shape, for sets that straddle
// nodes, and for NoNode.
func TestOnNodeMatchesEnumeration(t *testing.T) {
	for name, topo := range numa.Zoo() {
		full := FullSet(topo)
		for _, s := range []CPUSet{0, full, full &^ 0x5555555555555555, full & 0x00ff00ff00ff0f0f, 1 << uint(topo.TotalCores()-1)} {
			for n := numa.NodeID(0); int(n) < topo.NodeCount; n++ {
				var want CPUSet
				for _, c := range s.Cores() {
					if topo.NodeOf(c) == n {
						want = want.Add(c)
					}
				}
				if got := s.OnNode(topo, n); got != want {
					t.Errorf("%s: %v.OnNode(%d) = %v, want %v", name, s, n, got, want)
				}
			}
			if got := s.OnNode(topo, numa.NoNode); !got.IsEmpty() {
				t.Errorf("%s: %v.OnNode(NoNode) = %v, want empty", name, s, got)
			}
		}
	}
}

// TestPlacementCoreZeroAlloc: placement runs on every spawn and wake-up
// and walks core sets as masks — hinted, unhinted and pinned alike.
func TestPlacementCoreZeroAlloc(t *testing.T) {
	s := New(numa.NewMachine(numa.Opteron8387()), Config{})
	idle := RunnerFunc(func(_ *ExecContext, _ uint64) (uint64, bool, bool) { return 0, true, false })
	threads := []*Thread{
		s.Spawn(1, "spread", idle),
		s.Spawn(1, "hinted", idle, NearNode(2)),
		s.Spawn(1, "pinned", idle, Pinned(NewCPUSet(5, 6, 9)), NearNode(0)),
	}
	var sink numa.CoreID
	allocs := testing.AllocsPerRun(200, func() {
		for _, th := range threads {
			sink += s.placementCore(th)
		}
	})
	if allocs != 0 {
		t.Fatalf("placementCore allocated %v times per run, want 0", allocs)
	}
	if got := s.placementCore(threads[1]); s.topo.NodeOf(got) != 2 {
		t.Errorf("hinted thread placed on core %d, want a core of node 2", got)
	}
	if got := s.placementCore(threads[2]); !NewCPUSet(5, 6, 9).Contains(got) {
		t.Errorf("pinned thread placed on core %d, outside its mask", got)
	}
}
