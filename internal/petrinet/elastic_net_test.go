package petrinet

import (
	"testing"
	"testing/quick"
)

func newNet() *ElasticNet { return NewElasticNet(10, 70, 16) }

func TestStableSubNet(t *testing.T) {
	// Figure 11: u = 40 with thresholds 10/70 cycles Checks -> Stable ->
	// Checks without touching Provision.
	e := newNet()
	ev := e.Evaluate(40)
	if ev.Decision != DecisionNone {
		t.Errorf("decision = %v, want none", ev.Decision)
	}
	if ev.State != "Stable" {
		t.Errorf("state = %q, want Stable", ev.State)
	}
	if ev.Label != "t2-Stable-t3" {
		t.Errorf("label = %q, want t2-Stable-t3", ev.Label)
	}
	if e.NAlloc() != 1 {
		t.Errorf("nalloc = %d, want unchanged 1", e.NAlloc())
	}
}

func TestOverloadSubNetAllocates(t *testing.T) {
	// Figure 9: u = 99 >= thmax fires t1 then t5, allocating one core.
	e := newNet()
	ev := e.Evaluate(99)
	if ev.Decision != DecisionAllocate {
		t.Errorf("decision = %v, want allocate", ev.Decision)
	}
	if ev.Label != "t1-Overload-t5" {
		t.Errorf("label = %q, want t1-Overload-t5", ev.Label)
	}
	if e.NAlloc() != 2 {
		t.Errorf("nalloc = %d, want 2", e.NAlloc())
	}
}

func TestOverloadBoundedByHardware(t *testing.T) {
	// t6: with all 16 cores allocated, overload cannot allocate more.
	e := newNet()
	e.SetNAlloc(16)
	ev := e.Evaluate(100)
	if ev.Decision != DecisionNone {
		t.Errorf("decision = %v, want none at hardware bound", ev.Decision)
	}
	if ev.Label != "t1-Overload-t6" {
		t.Errorf("label = %q, want t1-Overload-t6", ev.Label)
	}
	if e.NAlloc() != 16 {
		t.Errorf("nalloc = %d, want 16", e.NAlloc())
	}
}

func TestIdleSubNetReleases(t *testing.T) {
	// Figure 10: u = 8 <= thmin with 5 cores fires t0 then t4, releasing
	// one core.
	e := newNet()
	e.SetNAlloc(5)
	ev := e.Evaluate(8)
	if ev.Decision != DecisionRelease {
		t.Errorf("decision = %v, want release", ev.Decision)
	}
	if ev.Label != "t0-Idle-t4" {
		t.Errorf("label = %q, want t0-Idle-t4", ev.Label)
	}
	if e.NAlloc() != 4 {
		t.Errorf("nalloc = %d, want 4", e.NAlloc())
	}
}

func TestIdleBoundedBelowByOneCore(t *testing.T) {
	// t7 bounds the least number of CPUs: nalloc == 1 cannot release.
	e := newNet()
	ev := e.Evaluate(0)
	if ev.Decision != DecisionNone {
		t.Errorf("decision = %v, want none at lower bound", ev.Decision)
	}
	if ev.Label != "t0-Idle-t7" {
		t.Errorf("label = %q, want t0-Idle-t7", ev.Label)
	}
	if e.NAlloc() != 1 {
		t.Errorf("nalloc = %d, want 1", e.NAlloc())
	}
}

func TestThresholdBoundariesInclusive(t *testing.T) {
	// Paper guards: t0 is u <= thmin, t1 is u >= thmax, t2 is strict
	// in-between.
	e := newNet()
	e.SetNAlloc(8)
	if ev := e.Evaluate(10); ev.State != "Idle" {
		t.Errorf("u=10 state = %q, want Idle (u <= 10 fires t0)", ev.State)
	}
	e.SetNAlloc(8)
	if ev := e.Evaluate(70); ev.State != "Overload" {
		t.Errorf("u=70 state = %q, want Overload (u >= 70 fires t1)", ev.State)
	}
	e.SetNAlloc(8)
	if ev := e.Evaluate(11); ev.State != "Stable" {
		t.Errorf("u=11 state = %q, want Stable", ev.State)
	}
	if ev := e.Evaluate(69); ev.State != "Stable" {
		t.Errorf("u=69 state = %q, want Stable", ev.State)
	}
}

func TestNAllocAlwaysWithinBounds(t *testing.T) {
	// Property: any sequence of load readings keeps 1 <= nalloc <= 16.
	f := func(loads []uint8) bool {
		e := newNet()
		for _, l := range loads {
			e.Evaluate(int(l % 101))
			if n := e.NAlloc(); n < 1 || n > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenNeverLost(t *testing.T) {
	// Property: after any evaluation of the specification net, exactly one
	// token sits in Checks and one in Provision (the net is 1-safe per
	// place in steady state).
	f := func(loads []uint8) bool {
		e := newRefElasticNet(10, 70, 16)
		n := e.net
		for _, l := range loads {
			e.Evaluate(int(l % 101))
			if n.TokenCount(e.Checks) != 1 || n.TokenCount(e.Provision) != 1 {
				return false
			}
			if n.TokenCount(e.Idle)+n.TokenCount(e.Stable)+n.TokenCount(e.Overload) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRampUpToHardwareBound(t *testing.T) {
	// Sustained overload grows allocation one core per control period up
	// to ntotal, mirroring Figure 7's ramp.
	e := newNet()
	for i := 0; i < 20; i++ {
		e.Evaluate(100)
	}
	if e.NAlloc() != 16 {
		t.Errorf("nalloc after sustained overload = %d, want 16", e.NAlloc())
	}
	// Sustained idleness shrinks back to one.
	for i := 0; i < 20; i++ {
		e.Evaluate(0)
	}
	if e.NAlloc() != 1 {
		t.Errorf("nalloc after sustained idle = %d, want 1", e.NAlloc())
	}
}

// The matrix tests read Figures 8-11 off the specification net's arcs.
func newSpec() *refElasticNet { return newRefElasticNet(10, 70, 16) }

func TestOverloadSubNetMatrices(t *testing.T) {
	// Figure 9's incidence structure: t1 consumes from Checks and
	// Provision and feeds Overload; t5 consumes Overload and feeds Checks
	// and Provision.
	e := newSpec()
	pre, post := e.net.Pre(), e.net.Post()
	t1, t5 := e.T[1].idx, e.T[5].idx

	if pre[e.Checks.idx][t1] != 1 || pre[e.Provision.idx][t1] != 1 {
		t.Error("Pre: t1 must consume Checks and Provision")
	}
	if post[e.Overload.idx][t1] != 1 {
		t.Error("Post: t1 must feed Overload")
	}
	if pre[e.Overload.idx][t5] != 1 {
		t.Error("Pre: t5 must consume Overload")
	}
	if post[e.Checks.idx][t5] != 1 || post[e.Provision.idx][t5] != 1 {
		t.Error("Post: t5 must feed Checks and Provision")
	}
	// "The arc Overload-t6 is not set in the Pre matrix" refers to the
	// *fired* arcs in the example; structurally t6 exists as the bound.
	inc := e.net.Incidence()
	if inc[e.Checks.idx][t1] != -1 || inc[e.Overload.idx][t1] != 1 {
		t.Error("incidence signs wrong for t1")
	}
}

func TestStableSubNetMatrices(t *testing.T) {
	// Figure 11: t2 moves the token Checks -> Stable, t3 moves it back.
	e := newSpec()
	inc := e.net.Incidence()
	t2, t3 := e.T[2].idx, e.T[3].idx
	if inc[e.Checks.idx][t2] != -1 || inc[e.Stable.idx][t2] != 1 {
		t.Error("t2 incidence wrong")
	}
	if inc[e.Stable.idx][t3] != -1 || inc[e.Checks.idx][t3] != 1 {
		t.Error("t3 incidence wrong")
	}
	// Stable sub-net never touches Provision.
	if inc[e.Provision.idx][t2] != 0 || inc[e.Provision.idx][t3] != 0 {
		t.Error("stable sub-net must not touch Provision")
	}
}

func TestIdleSubNetMatrices(t *testing.T) {
	// Figure 10: t0 consumes Checks+Provision into Idle; t4 returns to
	// Checks+Provision.
	e := newSpec()
	pre, post := e.net.Pre(), e.net.Post()
	t0, t4, t7 := e.T[0].idx, e.T[4].idx, e.T[7].idx
	if pre[e.Checks.idx][t0] != 1 || pre[e.Provision.idx][t0] != 1 {
		t.Error("t0 pre wrong")
	}
	if post[e.Idle.idx][t0] != 1 {
		t.Error("t0 post wrong")
	}
	for _, tr := range []int{t4, t7} {
		if pre[e.Idle.idx][tr] != 1 {
			t.Errorf("transition %d must consume Idle", tr)
		}
		if post[e.Checks.idx][tr] != 1 || post[e.Provision.idx][tr] != 1 {
			t.Errorf("transition %d must feed Checks and Provision", tr)
		}
	}
}

func TestSymbolicMatrices(t *testing.T) {
	e := newSpec()
	sp := e.net.SymbolicPre()
	if got := sp[e.Checks.idx][e.T[1].idx]; got != "u" {
		t.Errorf("symbolic Pre[Checks][t1] = %q, want u", got)
	}
	if got := sp[e.Provision.idx][e.T[1].idx]; got != "nalloc" {
		t.Errorf("symbolic Pre[Provision][t1] = %q, want nalloc", got)
	}
	if got := sp[e.Idle.idx][e.T[4].idx]; got != "u,nalloc" {
		t.Errorf("symbolic Pre[Idle][t4] = %q, want u,nalloc", got)
	}
	if got := sp[e.Stable.idx][e.T[1].idx]; got != "" {
		t.Errorf("symbolic Pre[Stable][t1] = %q, want no arc", got)
	}
}

func TestNewElasticNetValidation(t *testing.T) {
	for _, tc := range []struct{ min, max, n int }{
		{70, 10, 16}, {10, 10, 16}, {10, 70, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewElasticNet(%d,%d,%d) did not panic", tc.min, tc.max, tc.n)
				}
			}()
			NewElasticNet(tc.min, tc.max, tc.n)
		}()
	}
}

// TestEvaluateZeroAlloc: the decision is arithmetic on three ints and
// the path labels are constants, so a control period — re-synchronizing
// Provision, then evaluating a reading on any of the paths — never
// allocates.
func TestEvaluateZeroAlloc(t *testing.T) {
	e := newNet()
	readings := []int{5, 40, 90, 40, 90, 5, 0, 100}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		e.SetNAlloc(1 + i%16)
		ev := e.Evaluate(readings[i%len(readings)])
		if ev.Label == "" {
			t.Fatal("empty label")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("SetNAlloc+Evaluate allocated %v times per run, want 0", allocs)
	}
}
