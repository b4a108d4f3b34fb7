package petrinet

import (
	"strings"
	"testing"
)

func TestExploreSimpleCycle(t *testing.T) {
	// A two-place cycle with one token has exactly two reachable
	// markings and no deadlock.
	n := newRefNet()
	a, b := n.AddPlace("A", "x"), n.AddPlace("B", "x")
	carry := func(bd refBinding) refToken { return refToken{"x": bd["x"]} }
	n.AddTransition(&refTransition{Name: "ab", In: []*refPlace{a}, Out: []refOutArc{{Place: b, Expr: carry}}})
	n.AddTransition(&refTransition{Name: "ba", In: []*refPlace{b}, Out: []refOutArc{{Place: a, Expr: carry}}})
	n.Put(a, refToken{"x": 1})
	res := n.Explore(100)
	if res.States != 2 {
		t.Errorf("states = %d, want 2", res.States)
	}
	if len(res.Deadlocks) != 0 {
		t.Errorf("deadlocks = %v, want none", res.Deadlocks)
	}
	if res.MaxTokensPerPlace != 1 {
		t.Errorf("max tokens = %d, want 1 (1-safe)", res.MaxTokensPerPlace)
	}
	if res.Truncated {
		t.Error("tiny net truncated")
	}
}

func TestExploreDetectsDeadlock(t *testing.T) {
	// A sink transition consumes the token and never produces: the empty
	// marking deadlocks.
	n := newRefNet()
	a := n.AddPlace("A", "x")
	n.AddTransition(&refTransition{Name: "sink", In: []*refPlace{a}})
	n.Put(a, refToken{"x": 1})
	res := n.Explore(100)
	if len(res.Deadlocks) == 0 {
		t.Error("sink net reported no deadlock")
	}
}

func TestExploreRestoresMarking(t *testing.T) {
	n := newRefNet()
	a, b := n.AddPlace("A", "x"), n.AddPlace("B", "x")
	n.AddTransition(&refTransition{
		Name: "ab",
		In:   []*refPlace{a},
		Out:  []refOutArc{{Place: b, Expr: func(bd refBinding) refToken { return refToken{"x": bd["x"]} }}},
	})
	n.Put(a, refToken{"x": 7})
	before := n.MarkingString()
	n.Explore(50)
	if after := n.MarkingString(); after != before {
		t.Errorf("Explore mutated the marking: %q -> %q", before, after)
	}
}

// TestElasticNetFormalProperties machine-checks the elastic net's safety
// over its full operational state space: one control period injects a
// reading and fires to quiescence; exploring from every (u, nalloc)
// combination must stay 1-safe per place, deadlock-free mid-flight, and
// keep nalloc within [1, ntotal].
func TestElasticNetFormalProperties(t *testing.T) {
	nTotal := 4 // small machine keeps the product space exact
	for u := 0; u <= 100; u += 10 {
		for nalloc := 1; nalloc <= nTotal; nalloc++ {
			e := newRefElasticNet(10, 70, nTotal)
			e.SetNAlloc(nalloc)
			e.net.Put(e.Checks, refToken{"u": u})

			res := e.net.Explore(1000)
			if res.Truncated {
				t.Fatalf("u=%d nalloc=%d: state space truncated", u, nalloc)
			}
			if res.MaxTokensPerPlace > 1 {
				t.Errorf("u=%d nalloc=%d: net not 1-safe (max %d tokens)", u, nalloc, res.MaxTokensPerPlace)
			}
			// The only legitimate quiescent markings hold the u token in
			// Checks (the environment then injects the next reading).
			for _, d := range res.Deadlocks {
				if !strings.Contains(string(d), "Checks={") {
					t.Errorf("u=%d nalloc=%d: deadlock outside Checks: %s", u, nalloc, d)
				}
			}
			// Boundedness: nalloc stays in [1, ntotal] in every reachable
			// token, held in Provision or carried through Idle or Overload.
			if b := res.Bounds["nalloc"]; b[0] < 1 || b[1] > nTotal {
				t.Errorf("u=%d nalloc=%d: reachable nalloc spans %v, outside [1, %d]", u, nalloc, b, nTotal)
			}
		}
	}
}

// TestElasticNetAllocationInvariant fires exhaustive reading sequences
// and confirms Provision's nalloc never leaves [1, ntotal].
func TestElasticNetAllocationInvariant(t *testing.T) {
	e := newRefElasticNet(10, 70, 3)
	readings := []int{0, 10, 50, 70, 100}
	var walk func(depth int)
	walk = func(depth int) {
		if depth == 0 {
			return
		}
		for _, u := range readings {
			before := e.NAlloc()
			e.Evaluate(u)
			after := e.NAlloc()
			if after < 1 || after > 3 {
				t.Fatalf("nalloc %d out of [1,3]", after)
			}
			if diff := after - before; diff < -1 || diff > 1 {
				t.Fatalf("allocation jumped by %d; must move one core at a time", diff)
			}
			walk(depth - 1)
		}
	}
	walk(3)
}
