package petrinet

import (
	"fmt"
	"testing"

	"elasticore/internal/hashmix"
)

// diff_test.go drives the closed form (ElasticNet) and the specification
// net (ref_test.go) through the same inputs and demands identical
// results: the Evaluation, the allocation, and a specification marking
// with the reading back in Checks. The input domain is finite, so the
// sweep below covers all of it for the machines it names.

// diffThresholds are the (thmin, thmax) pairs of the two strategies the
// paper demonstrates: CPU load and the HT/IMC ratio in thousandths.
var diffThresholds = [][2]int{{10, 70}, {100, 400}}

var diffTotals = []int{1, 2, 16, 63}

// netPair holds the closed form and the specification in lockstep.
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

// evaluate fires both on u and fails the test on any difference.
func (p *netPair) evaluate(u int) Evaluation {
	p.t.Helper()
	got, want := p.got.Evaluate(u), p.ref.Evaluate(u)
	if got != want {
		p.t.Fatalf("Evaluate(%d) = %+v, specification %+v", u, got, want)
	}
	if g, w := p.got.NAlloc(), p.ref.NAlloc(); g != w {
		p.t.Fatalf("after Evaluate(%d): NAlloc %d, specification %d", u, g, w)
	}
	// One complete path leaves one token in Checks and one in Provision.
	marking := fmt.Sprintf("Checks=[{u:%d}] Provision=[{nalloc:%d}] Idle=[] Stable=[] Overload=[]", u, got.NAlloc)
	if m := p.ref.net.MarkingString(); m != marking {
		p.t.Fatalf("after Evaluate(%d): specification marking %q, want %q", u, m, marking)
	}
	return got
}

// TestDiffEveryReadingAndAllocation sweeps every (u, nalloc) of each
// machine size under both strategies' thresholds, u from below zero to
// past thmax+thmin, on one long-lived pair per configuration.
func TestDiffEveryReadingAndAllocation(t *testing.T) {
	for _, th := range diffThresholds {
		for _, nTotal := range diffTotals {
			p := newNetPair(t, th[0], th[1], nTotal)
			labels := map[string]bool{}
			for nalloc := 1; nalloc <= nTotal; nalloc++ {
				for u := -th[0] - 1; u <= th[1]+th[0]+1; u++ {
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

// TestDiffOutOfRangeAllocations: outside [1, ntotal] no action transition
// of the specification is enabled, so a reading strands the token in Idle
// (zero cores) or Overload (one core too many) and the net never releases
// or allocates again. The closed form refuses such a marking instead.
func TestDiffOutOfRangeAllocations(t *testing.T) {
	for _, th := range diffThresholds {
		for _, nTotal := range diffTotals {
			for _, nalloc := range []int{0, nTotal + 1} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("th=%v nTotal=%d: SetNAlloc(%d) did not panic", th, nTotal, nalloc)
						}
					}()
					NewElasticNet(th[0], th[1], nTotal).SetNAlloc(nalloc)
				}()

				spec := newRefElasticNet(th[0], th[1], nTotal)
				spec.SetNAlloc(nalloc)
				u, stuck := th[0], "t0-Idle"
				if nalloc > nTotal {
					u, stuck = th[1], "t1-Overload"
				}
				if ev := spec.Evaluate(u); ev.Label != stuck {
					t.Errorf("th=%v nTotal=%d nalloc=%d: specification fired %q, want stranded %q", th, nTotal, nalloc, ev.Label, stuck)
				}
				// Provision is empty now: no later reading releases or
				// allocates.
				for _, u := range []int{0, th[1] + th[0]} {
					if ev := spec.Evaluate(u); ev.Decision != DecisionNone {
						t.Errorf("th=%v nTotal=%d nalloc=%d: stranded specification decided %v on u=%d", th, nTotal, nalloc, ev.Decision, u)
					}
				}
			}
		}
	}
}

// TestDiffRandomWalk is a SplitMix64-seeded 10k-step walk with in-range
// SetNAlloc calls interleaved the way the mechanism re-synchronizes the
// net with the cgroup, and readings from below zero to past thmax+thmin.
func TestDiffRandomWalk(t *testing.T) {
	for _, th := range diffThresholds {
		for _, nTotal := range diffTotals {
			p := newNetPair(t, th[0], th[1], nTotal)
			rng := hashmix.Stream{State: uint64(th[1])<<8 | uint64(nTotal)}
			for step := 0; step < 10000; step++ {
				if rng.Next()%16 < 4 {
					p.setNAlloc(1 + int(rng.Next()%uint64(nTotal)))
				}
				p.evaluate(int(rng.Next()%uint64(th[1]+3*th[0]+1)) - th[0])
			}
		}
	}
}

// TestDiffExplore compares the closed form with the specification's
// reachability analysis. Held at one reading u, the specification can
// only repeat the path the closed form computes, so from every in-range
// start it reaches two markings per allocation the closed form visits
// when fed u again and again (the reading in Checks, and the token in
// Idle, Overload or Stable), with no deadlock, one token per place, and
// nalloc spanning exactly the visited allocations.
func TestDiffExplore(t *testing.T) {
	for _, th := range diffThresholds {
		for _, nTotal := range diffTotals {
			for nalloc := 1; nalloc <= nTotal; nalloc++ {
				for _, u := range []int{-1, 0, th[0], th[0] + 1, th[1] - 1, th[1], th[1] + th[0]} {
					e := NewElasticNet(th[0], th[1], nTotal)
					e.SetNAlloc(nalloc)
					visited := map[int]bool{}
					lo, hi := nalloc, nalloc
					for n := nalloc; !visited[n]; n = e.Evaluate(u).NAlloc {
						visited[n] = true
						lo, hi = min(lo, n), max(hi, n)
					}

					spec := newRefElasticNet(th[0], th[1], nTotal)
					spec.SetNAlloc(nalloc)
					spec.net.Put(spec.Checks, refToken{"u": u})
					before := spec.net.MarkingString()
					res := spec.net.Explore(1000)
					if states := 2 * len(visited); res.States != states || res.MaxTokensPerPlace != 1 || len(res.Deadlocks) != 0 || res.Truncated {
						t.Fatalf("th=%v nTotal=%d nalloc=%d u=%d: Explore = %+v, want %d states, 1-safe, no deadlock", th, nTotal, nalloc, u, res, states)
					}
					if b := res.Bounds["nalloc"]; b != [2]int{lo, hi} {
						t.Fatalf("th=%v nTotal=%d nalloc=%d u=%d: reachable nalloc spans %v, closed form visits [%d, %d]", th, nTotal, nalloc, u, b, lo, hi)
					}
					if after := spec.net.MarkingString(); after != before {
						t.Fatalf("Explore mutated the marking: %q -> %q", before, after)
					}
				}
			}
		}
	}
}
