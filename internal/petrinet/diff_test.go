package petrinet

import (
	"reflect"
	"testing"

	"elasticore/internal/hashmix"
)

// diff_test.go drives the slot-token elastic net and the map-based
// reference (ref_test.go) through the same inputs and demands identical
// results: the Evaluation, the rendered marking and the reachability
// analysis.

// diffThresholds are the (thmin, thmax) pairs of the two strategies the
// paper demonstrates: CPU load and the HT/IMC ratio in thousandths.
var diffThresholds = [][2]int{{10, 70}, {100, 400}}

var diffTotals = []int{1, 2, 16, 63}

// netPair holds one net of each implementation in lockstep.
type netPair struct {
	t   *testing.T
	got *ElasticNet
	ref *refElasticNet
}

func newNetPair(t *testing.T, thMin, thMax, nTotal int) *netPair {
	return &netPair{t: t, got: NewElasticNet(thMin, thMax, nTotal), ref: newRefElasticNet(thMin, thMax, nTotal)}
}

func (p *netPair) setNAlloc(n int) {
	p.got.SetNAlloc(n)
	p.ref.SetNAlloc(n)
}

// evaluate fires both nets on u and fails the test on any difference.
func (p *netPair) evaluate(u int) Evaluation {
	p.t.Helper()
	got, want := p.got.Evaluate(u), p.ref.Evaluate(u)
	if got != want {
		p.t.Fatalf("Evaluate(%d) = %+v, reference %+v", u, got, want)
	}
	if g, w := p.got.Net().MarkingString(), p.ref.net.MarkingString(); g != w {
		p.t.Fatalf("after Evaluate(%d): marking %q, reference %q", u, g, w)
	}
	if g, w := p.got.NAlloc(), p.ref.NAlloc(); g != w {
		p.t.Fatalf("after Evaluate(%d): NAlloc %d, reference %d", u, g, w)
	}
	return got
}

// TestDiffEveryReadingAndAllocation sweeps every (u, nalloc) of each
// machine size under both strategies' thresholds, on one long-lived pair
// per configuration so the places' reused storage is exercised too.
func TestDiffEveryReadingAndAllocation(t *testing.T) {
	for _, th := range diffThresholds {
		for _, nTotal := range diffTotals {
			p := newNetPair(t, th[0], th[1], nTotal)
			labels := map[string]bool{}
			for nalloc := 1; nalloc <= nTotal; nalloc++ {
				for u := 0; u <= th[1]+th[0]; u++ {
					p.setNAlloc(nalloc)
					labels[p.evaluate(u).Label] = true
				}
			}
			// nTotal == 1 can neither release (t4) nor allocate (t5).
			want := 5
			if nTotal == 1 {
				want = 3
			}
			if len(labels) != want {
				t.Errorf("th=%v nTotal=%d: saw labels %v, want %d distinct", th, nTotal, labels, want)
			}
		}
	}
}

// TestDiffOutOfRangeAllocations feeds both nets Provision markings no
// guard accepts (0 and nTotal+1 cores): the token stays in Idle or
// Overload, later evaluations find Provision empty, and the two
// implementations must still agree step for step.
func TestDiffOutOfRangeAllocations(t *testing.T) {
	for _, th := range diffThresholds {
		for _, nTotal := range diffTotals {
			for _, nalloc := range []int{0, nTotal + 1} {
				p := newNetPair(t, th[0], th[1], nTotal)
				p.setNAlloc(nalloc)
				// The first reading must strand the token: idle for zero
				// cores, overload for one core too many.
				first, stuck := 0, "t0-Idle"
				if nalloc > nTotal {
					first, stuck = th[1], "t1-Overload"
				}
				labels := map[string]bool{}
				for _, u := range []int{first, 0, th[0], th[0] + 1, th[1] - 1, th[1], th[1] + 1} {
					labels[p.evaluate(u).Label] = true
				}
				for _, l := range []string{stuck, "quiescent", "t2-Stable-t3"} {
					if !labels[l] {
						t.Errorf("th=%v nTotal=%d nalloc=%d: label %q never produced (saw %v)", th, nTotal, nalloc, l, labels)
					}
				}
			}
		}
	}
}

// TestDiffRandomWalk is a SplitMix64-seeded 10k-step walk with SetNAlloc
// interleaved the way the mechanism re-synchronizes the net with the
// cgroup. The last 200 steps also set allocations no guard accepts: the
// first strands a token at the head of Idle or Overload, and from then on
// every evaluation entering that place strands another behind it.
func TestDiffRandomWalk(t *testing.T) {
	for _, th := range diffThresholds {
		for _, nTotal := range diffTotals {
			p := newNetPair(t, th[0], th[1], nTotal)
			rng := hashmix.Stream{State: uint64(th[1])<<8 | uint64(nTotal)}
			for step := 0; step < 10000; step++ {
				switch r := rng.Next() % 16; {
				case r == 0 && step >= 9800:
					p.setNAlloc(int(rng.Next()%2) * (nTotal + 1))
				case r < 4:
					p.setNAlloc(1 + int(rng.Next()%uint64(nTotal)))
				}
				p.evaluate(int(rng.Next() % uint64(th[1]+th[0]+1)))
			}
		}
	}
}

// TestDiffExplore compares the reachability analysis from every marking
// one control period can start in.
func TestDiffExplore(t *testing.T) {
	for _, th := range diffThresholds {
		for _, nTotal := range diffTotals {
			for nalloc := 0; nalloc <= nTotal+1; nalloc++ {
				for _, u := range []int{0, th[0], th[0] + 1, th[1] - 1, th[1], th[1] + th[0]} {
					p := newNetPair(t, th[0], th[1], nTotal)
					p.setNAlloc(nalloc)
					n := p.got.Net()
					n.Put(p.got.Checks, Tok(n.Var("u"), u))
					p.ref.net.Put(p.ref.Checks, refToken{"u": u})

					got, want := n.Explore(1000), p.ref.net.Explore(1000)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("th=%v nTotal=%d nalloc=%d u=%d: Explore = %+v, reference %+v", th, nTotal, nalloc, u, got, want)
					}
					if g, w := n.MarkingString(), p.ref.net.MarkingString(); g != w {
						t.Fatalf("after Explore: marking %q, reference %q", g, w)
					}
				}
			}
		}
	}
}
