package petrinet

import (
	"testing"
	"testing/quick"
)

// buildSimpleNet returns a two-place net moving a counter token through a
// transition that increments it.
func buildSimpleNet() (*Net, *Place, *Place, *Transition) {
	n := New()
	x := n.Var("x")
	a := n.AddPlace("A")
	b := n.AddPlace("B")
	t := n.AddTransition(&Transition{
		Name: "inc",
		In:   []InArc{{Place: a, Vars: []Var{x}}},
		Out: []OutArc{{Place: b, Vars: []Var{x}, Expr: func(bd Binding) Token {
			return Tok(x, bd.Get(x)+1)
		}}},
	})
	return n, a, b, t
}

func TestFireMovesAndTransformsToken(t *testing.T) {
	n, a, b, tr := buildSimpleNet()
	x := n.Var("x")
	n.Put(a, Tok(x, 41))
	bind, err := n.Fire(tr)
	if err != nil {
		t.Fatalf("Fire: %v", err)
	}
	if bind.Get(x) != 41 {
		t.Errorf("binding x = %d, want 41", bind.Get(x))
	}
	if n.TokenCount(a) != 0 {
		t.Error("input place still marked")
	}
	toks := n.Tokens(b)
	if len(toks) != 1 || toks[0].Get(x) != 42 {
		t.Errorf("output tokens = %v, want [{x:42}]", toks)
	}
}

func TestFireNotEnabledErrors(t *testing.T) {
	n, _, _, tr := buildSimpleNet()
	if _, err := n.Fire(tr); err == nil {
		t.Error("Fire on empty input place did not error")
	}
	_ = n
}

func TestGuardBlocksFiring(t *testing.T) {
	n := New()
	x := n.Var("x")
	a := n.AddPlace("A")
	tr := n.AddTransition(&Transition{
		Name:  "gated",
		Guard: func(b Binding) bool { return b.Get(x) > 10 },
		In:    []InArc{{Place: a, Vars: []Var{x}}},
	})
	n.Put(a, Tok(x, 5))
	if _, ok := n.Enabled(tr); ok {
		t.Error("guard x>10 enabled with x=5")
	}
	n.Drain(a)
	n.Put(a, Tok(x, 11))
	if _, ok := n.Enabled(tr); !ok {
		t.Error("guard x>10 not enabled with x=11")
	}
}

func TestStepFiresFirstEnabled(t *testing.T) {
	n := New()
	x := n.Var("x")
	a := n.AddPlace("A")
	fired := ""
	mk := func(name string, guard func(Binding) bool) *Transition {
		return n.AddTransition(&Transition{
			Name:  name,
			Guard: guard,
			In:    []InArc{{Place: a, Vars: []Var{x}}},
			Out: []OutArc{{Place: a, Vars: []Var{x}, Expr: func(b Binding) Token {
				fired = name
				return Tok(x, b.Get(x))
			}}},
		})
	}
	mk("never", func(Binding) bool { return false })
	mk("yes", nil)
	mk("also", nil)
	n.Put(a, Tok(x, 1))
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
		n := New()
		x := n.Var("x")
		places := []*Place{n.AddPlace("p0"), n.AddPlace("p1"), n.AddPlace("p2")}
		for i := range places {
			next := places[(i+1)%len(places)]
			from := places[i]
			n.AddTransition(&Transition{
				Name: "t",
				In:   []InArc{{Place: from, Vars: []Var{x}}},
				Out:  []OutArc{{Place: next, Vars: []Var{x}, Expr: func(b Binding) Token { return Tok(x, b.Get(x)) }}},
			})
		}
		total := int(seed%5) + 1
		for i := 0; i < total; i++ {
			n.Put(places[i%3], Tok(x, i))
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
	n := New()
	u, nalloc := n.Var("u"), n.Var("nalloc")
	if got := n.TokenString(Tok(u, 99).With(nalloc, 3)); got != "{nalloc:3 u:99}" {
		t.Errorf("TokenString = %q", got)
	}
	if got := n.TokenString(Token{}); got != "{}" {
		t.Errorf("empty TokenString = %q", got)
	}
}

func TestTokenFields(t *testing.T) {
	n := New()
	u, nalloc := n.Var("u"), n.Var("nalloc")
	if n.Var("u") != u {
		t.Error("interning the same name twice returned a new Var")
	}
	tok := Tok(u, 0)
	if !tok.Has(u) || tok.Has(nalloc) {
		t.Errorf("presence wrong: has u %v, has nalloc %v", tok.Has(u), tok.Has(nalloc))
	}
	// An absent field reads as zero, as a missing map key did.
	if tok.Get(nalloc) != 0 {
		t.Errorf("absent field = %d, want 0", tok.Get(nalloc))
	}
	if tok == tok.With(nalloc, 0) {
		t.Error("a token carrying nalloc:0 equals one without the field")
	}
}

func TestVarLimitPanics(t *testing.T) {
	n := New()
	for _, name := range []string{"a", "b", "c", "d"} {
		n.Var(name)
	}
	defer func() {
		if recover() == nil {
			t.Error("interning a fifth variable did not panic")
		}
	}()
	n.Var("e")
}

func TestFirePopsHeadAndKeepsOrder(t *testing.T) {
	n, a, b, tr := buildSimpleNet()
	x := n.Var("x")
	for _, v := range []int{1, 2, 3} {
		n.Put(a, Tok(x, v))
	}
	for _, want := range []int{2, 3} {
		if _, err := n.Fire(tr); err != nil {
			t.Fatal(err)
		}
		toks := n.Tokens(b)
		if got := toks[len(toks)-1].Get(x); got != want {
			t.Errorf("fired head %d, want %d", got-1, want-1)
		}
	}
	if got := n.MarkingString(); got != "A=[{x:3}] B=[{x:2} {x:3}]" {
		t.Errorf("marking = %q", got)
	}
}

func TestPrePostIncidence(t *testing.T) {
	n, a, b, _ := buildSimpleNet()
	pre, post, inc := n.Pre(), n.Post(), n.Incidence()
	// Pre: arc <A, inc>.
	if pre.Cells[a.idx][0] != 1 || pre.Cells[b.idx][0] != 0 {
		t.Errorf("Pre = %v", pre.Cells)
	}
	// Post: arc <inc, B>.
	if post.Cells[b.idx][0] != 1 || post.Cells[a.idx][0] != 0 {
		t.Errorf("Post = %v", post.Cells)
	}
	// Incidence = Post - Pre.
	if inc.Cells[a.idx][0] != -1 || inc.Cells[b.idx][0] != 1 {
		t.Errorf("Incidence = %v", inc.Cells)
	}
}

func TestMatrixString(t *testing.T) {
	n, _, _, _ := buildSimpleNet()
	s := n.Incidence().String()
	if s == "" {
		t.Error("empty matrix rendering")
	}
}
