package tenant

import (
	"slices"
	"testing"
)

func TestApportionDemandFits(t *testing.T) {
	grant := Apportion([]int{3, 5, 2}, []int{1, 1, 1}, []int{1, 1, 1}, 16)
	for i, want := range []int{3, 5, 2} {
		if grant[i] != want {
			t.Errorf("grant[%d] = %d, want full demand %d (machine not contended)", i, grant[i], want)
		}
	}
}

func TestApportionLeftoverStaysUnallocated(t *testing.T) {
	grant := Apportion([]int{2, 2}, []int{1, 1}, []int{1, 1}, 16)
	if grant[0]+grant[1] != 4 {
		t.Errorf("grants %v sum to %d, want exactly the demand 4", grant, grant[0]+grant[1])
	}
}

func TestApportionWeightedContention(t *testing.T) {
	// Both want the whole machine; floors 2 and 1; weights 4:1 over the
	// 13 spare cores -> gold 2+11, bronze 1+2 (largest remainder gives the
	// leftover core to the heavier tenant).
	grant := Apportion([]int{16, 16}, []int{4, 1}, []int{2, 1}, 16)
	if grant[0]+grant[1] != 16 {
		t.Fatalf("grants %v do not fill the machine", grant)
	}
	if grant[0] < 12 || grant[1] < 1 {
		t.Errorf("grants %v, want ~4:1 split above the floors", grant)
	}
	if grant[1] < 1 {
		t.Errorf("bronze starved: %v", grant)
	}
}

func TestApportionEqualWeights(t *testing.T) {
	grant := Apportion([]int{16, 16}, []int{1, 1}, []int{1, 1}, 16)
	if grant[0] != 8 || grant[1] != 8 {
		t.Errorf("equal-weight contention grants %v, want 8/8", grant)
	}
}

func TestApportionFloorsAlwaysKept(t *testing.T) {
	grant := Apportion([]int{16, 16, 16, 16}, []int{8, 1, 1, 1}, []int{1, 2, 3, 4}, 16)
	sum := 0
	for i, g := range grant {
		floor := []int{1, 2, 3, 4}[i]
		if g < floor {
			t.Errorf("grant[%d] = %d below floor %d", i, g, floor)
		}
		sum += g
	}
	if sum > 16 {
		t.Errorf("grants %v over-commit (%d > 16)", grant, sum)
	}
}

func TestApportionDemandBelowFloor(t *testing.T) {
	// A tenant demanding less than its floor only receives its demand;
	// the idle reservation is not forced onto it.
	grant := Apportion([]int{1, 16}, []int{1, 1}, []int{4, 1}, 16)
	if grant[0] != 1 {
		t.Errorf("idle tenant granted %d, want its demand 1", grant[0])
	}
	if grant[1] != 15 {
		t.Errorf("busy tenant granted %d, want the remaining 15", grant[1])
	}
}

func TestApportionZeroWeightDefaultsToOne(t *testing.T) {
	grant := Apportion([]int{16, 16}, []int{0, 0}, []int{1, 1}, 16)
	if grant[0] != 8 || grant[1] != 8 {
		t.Errorf("zero weights should behave as 1:1, got %v", grant)
	}
}

func TestApportionSingleSpareCoreGoesToHeaviest(t *testing.T) {
	// Floors soak up 15 of 16 cores; the single spare core must go to the
	// heaviest claimant, deterministically.
	grant := Apportion([]int{16, 16, 16}, []int{1, 5, 2}, []int{5, 5, 5}, 16)
	if grant[1] != 6 {
		t.Errorf("spare core went to %v, want the weight-5 tenant", grant)
	}
	if grant[0] != 5 || grant[2] != 5 {
		t.Errorf("floors disturbed: %v", grant)
	}
}

func TestApportionDeterministic(t *testing.T) {
	a := Apportion([]int{7, 9, 16, 4}, []int{3, 2, 5, 1}, []int{1, 1, 1, 1}, 16)
	for i := 0; i < 50; i++ {
		b := Apportion([]int{7, 9, 16, 4}, []int{3, 2, 5, 1}, []int{1, 1, 1, 1}, 16)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("non-deterministic apportionment: %v vs %v", a, b)
			}
		}
	}
}

// TestApportionerMatchesApportion: one Apportioner fed a stream of
// arbitration rounds of varying tenant counts — its buffers grown by one
// round and reused by the next — grants what a fresh Apportion grants every
// round, and a warm one allocates nothing.
func TestApportionerMatchesApportion(t *testing.T) {
	var ap Apportioner
	rng := uint64(7)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	for round := 0; round < 500; round++ {
		n := 1 + next(12)
		demand, weight, floor := make([]int, n), make([]int, n), make([]int, n)
		for i := range demand {
			demand[i], weight[i], floor[i] = next(20), next(6), 1
		}
		total := n + next(48)
		want := Apportion(demand, weight, floor, total)
		if got := ap.Apportion(demand, weight, floor, total); !slices.Equal(got, want) {
			t.Fatalf("round %d: Apportioner granted %v, Apportion %v (demand %v, weight %v, total %d)", round, got, want, demand, weight, total)
		}
	}
	demand, weight, floor := []int{16, 16, 16, 16}, []int{8, 1, 1, 1}, []int{1, 2, 3, 4}
	if allocs := testing.AllocsPerRun(100, func() { ap.Apportion(demand, weight, floor, 15) }); allocs != 0 {
		t.Errorf("a warm Apportioner allocated %v times a round, want 0", allocs)
	}
}
