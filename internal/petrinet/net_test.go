package petrinet

import (
	"testing"
	"testing/quick"
)

// net_test.go pins the firing semantics of the specification net
// (ref_test.go) on small nets: token flow, guards, step order, quiescence
// and the Pre/Post/incidence matrices.

// buildSimpleNet returns a two-place net moving a counter token through a
// transition that increments it.
func buildSimpleNet() (*refNet, *refPlace, *refPlace, *refTransition) {
	n := newRefNet()
	a := n.AddPlace("A", "x")
	b := n.AddPlace("B", "x")
	t := n.AddTransition(&refTransition{
		Name: "inc",
		In:   []*refPlace{a},
		Out:  []refOutArc{{Place: b, Expr: func(bd refBinding) refToken { return refToken{"x": bd["x"] + 1} }}},
	})
	return n, a, b, t
}

func TestFireMovesAndTransformsToken(t *testing.T) {
	n, a, b, tr := buildSimpleNet()
	n.Put(a, refToken{"x": 41})
	bind, err := n.Fire(tr)
	if err != nil {
		t.Fatalf("Fire: %v", err)
	}
	if bind["x"] != 41 {
		t.Errorf("binding x = %d, want 41", bind["x"])
	}
	if n.TokenCount(a) != 0 {
		t.Error("input place still marked")
	}
	toks := n.Tokens(b)
	if len(toks) != 1 || toks[0]["x"] != 42 {
		t.Errorf("output tokens = %v, want [{x:42}]", toks)
	}
}

func TestFireNotEnabledErrors(t *testing.T) {
	n, _, _, tr := buildSimpleNet()
	if _, err := n.Fire(tr); err == nil {
		t.Error("Fire on empty input place did not error")
	}
}

func TestGuardBlocksFiring(t *testing.T) {
	n := newRefNet()
	a := n.AddPlace("A", "x")
	tr := n.AddTransition(&refTransition{
		Name:  "gated",
		Guard: func(b refBinding) bool { return b["x"] > 10 },
		In:    []*refPlace{a},
	})
	n.Put(a, refToken{"x": 5})
	if _, ok := n.Enabled(tr); ok {
		t.Error("guard x>10 enabled with x=5")
	}
	n.Drain(a)
	n.Put(a, refToken{"x": 11})
	if _, ok := n.Enabled(tr); !ok {
		t.Error("guard x>10 not enabled with x=11")
	}
}

func TestStepFiresFirstEnabled(t *testing.T) {
	n := newRefNet()
	a := n.AddPlace("A", "x")
	fired := ""
	mk := func(name string, guard func(refBinding) bool) {
		n.AddTransition(&refTransition{
			Name:  name,
			Guard: guard,
			In:    []*refPlace{a},
			Out: []refOutArc{{Place: a, Expr: func(b refBinding) refToken {
				fired = name
				return refToken{"x": b["x"]}
			}}},
		})
	}
	mk("never", func(refBinding) bool { return false })
	mk("yes", nil)
	mk("also", nil)
	n.Put(a, refToken{"x": 1})
	tr, _ := n.Step()
	if tr == nil || tr.Name != "yes" || fired != "yes" {
		t.Errorf("Step fired %v, want yes", tr)
	}
}

func TestStepQuiescent(t *testing.T) {
	n, _, _, _ := buildSimpleNet()
	if tr, _ := n.Step(); tr != nil {
		t.Errorf("empty net fired %s", tr.Name)
	}
}

func TestTokenConservationUnderFiring(t *testing.T) {
	// Property: in a net whose transitions have one input and one output
	// arc, the total token count is invariant under any firing sequence.
	f := func(seed uint8, steps uint8) bool {
		n := newRefNet()
		places := []*refPlace{n.AddPlace("p0", "x"), n.AddPlace("p1", "x"), n.AddPlace("p2", "x")}
		for i := range places {
			n.AddTransition(&refTransition{
				Name: "t",
				In:   []*refPlace{places[i]},
				Out:  []refOutArc{{Place: places[(i+1)%len(places)], Expr: func(b refBinding) refToken { return refToken{"x": b["x"]} }}},
			})
		}
		total := int(seed%5) + 1
		for i := 0; i < total; i++ {
			n.Put(places[i%3], refToken{"x": i})
		}
		for i := 0; i < int(steps); i++ {
			n.Step()
		}
		got := 0
		for _, p := range places {
			got += n.TokenCount(p)
		}
		return got == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenString(t *testing.T) {
	if got := (refToken{"u": 99, "nalloc": 3}).String(); got != "{nalloc:3 u:99}" {
		t.Errorf("token String = %q", got)
	}
	if got := (refToken{}).String(); got != "{}" {
		t.Errorf("empty token String = %q", got)
	}
}

func TestFirePopsHeadAndKeepsOrder(t *testing.T) {
	n, a, b, tr := buildSimpleNet()
	for _, v := range []int{1, 2, 3} {
		n.Put(a, refToken{"x": v})
	}
	for _, want := range []int{2, 3} {
		if _, err := n.Fire(tr); err != nil {
			t.Fatal(err)
		}
		toks := n.Tokens(b)
		if got := toks[len(toks)-1]["x"]; got != want {
			t.Errorf("fired head %d, want %d", got-1, want-1)
		}
	}
	if got := n.MarkingString(); got != "A=[{x:3}] B=[{x:2} {x:3}]" {
		t.Errorf("marking = %q", got)
	}
}

func TestPrePostIncidence(t *testing.T) {
	n, a, b, tr := buildSimpleNet()
	pre, post, inc := n.Pre(), n.Post(), n.Incidence()
	// Pre: arc <A, inc>.
	if pre[a.idx][tr.idx] != 1 || pre[b.idx][tr.idx] != 0 {
		t.Errorf("Pre = %v", pre)
	}
	// Post: arc <inc, B>.
	if post[b.idx][tr.idx] != 1 || post[a.idx][tr.idx] != 0 {
		t.Errorf("Post = %v", post)
	}
	// Incidence = Post - Pre.
	if inc[a.idx][tr.idx] != -1 || inc[b.idx][tr.idx] != 1 {
		t.Errorf("Incidence = %v", inc)
	}
}

func TestMatrixString(t *testing.T) {
	n, _, _, _ := buildSimpleNet()
	want := "             inc\n" +
		"A             -1\n" +
		"B              1\n"
	if got := n.MatrixString(n.Incidence()); got != want {
		t.Errorf("incidence rendering:\n%s\nwant:\n%s", got, want)
	}
}
