// Package petrinet implements the Predicate/Transition (PrT) net formalism
// the paper builds its abstract model on (Section III): an oriented
// bipartite graph of places and transitions where tokens carry values,
// arcs bind token values to variables, and each transition guards its
// firing with a first-order condition over those variables.
//
// The net structure is the paper's tuple {P, T, F, R, M}: places P,
// transitions T, the flow relation F (input and output arcs), the
// constraining mapping R (guards), and the marking M (token distribution).
// Pre, Post and incidence matrices (Figures 8-11) are derivable from any
// built net.
package petrinet

import (
	"fmt"
	"sort"
	"strings"
)

// maxVars bounds how many distinct variables one net may intern; it sizes
// the fixed slot array of a Token.
const maxVars = 4

// Var is a variable interned on a net (Net.Var): the index of its slot in
// every token and binding of that net.
type Var uint8

// Token is a value-carrying token: a small set of integer fields, one slot
// per interned variable plus a presence mask (e.g. {u: 40} in Checks or
// {nalloc: 3} in Provision). It is a plain value: copying it copies the
// token, and firing a transition allocates nothing.
type Token struct {
	mask uint8
	vals [maxVars]int
}

// Binding is the variable assignment produced by consuming input tokens:
// the union of their fields.
type Binding = Token

// Tok returns the token {v: x}.
func Tok(v Var, x int) Token { return Token{}.With(v, x) }

// With returns the token with field v set to x.
func (t Token) With(v Var, x int) Token {
	t.mask |= 1 << v
	t.vals[v] = x
	return t
}

// Has reports whether the token carries field v.
func (t Token) Has(v Var) bool { return t.mask&(1<<v) != 0 }

// Get returns field v, or zero when the token does not carry it (With is
// the only writer, so an absent field's slot is still zero).
func (t Token) Get(v Var) int { return t.vals[v] }

// merge overlays o's fields on t (o wins where both carry a field).
func (t Token) merge(o Token) Token {
	for v := Var(0); v < maxVars; v++ {
		if o.Has(v) {
			t = t.With(v, o.vals[v])
		}
	}
	return t
}

// Place is a node of the net holding tokens.
type Place struct {
	Name string
	idx  int
}

// InArc consumes one token from Place when its transition fires, binding
// every field of the token. Vars names the fields the arc inscription
// mentions (for symbolic matrices; binding itself takes all fields).
type InArc struct {
	Place *Place
	Vars  []Var
}

// OutArc produces a token on Place when its transition fires. Expr builds
// the token from the binding; Vars names the inscription for display.
type OutArc struct {
	Place *Place
	Vars  []Var
	Expr  func(Binding) Token
}

// Transition is a guarded firing rule.
type Transition struct {
	Name string
	// Guard is the constraining mapping R(t): a first-order condition over
	// the binding. A nil guard is always true.
	Guard func(Binding) bool
	// GuardDesc is the human-readable form of the guard, e.g. "u >= 70".
	GuardDesc string
	In        []InArc
	Out       []OutArc
	idx       int
}

// Net is a Predicate/Transition net with its current marking.
type Net struct {
	places      []*Place
	transitions []*Transition
	vars        []string
	// marking holds each place's tokens in arrival order, indexed by
	// Place.idx.
	marking [][]Token
}

// New returns an empty net.
func New() *Net { return &Net{} }

// Var interns a variable name, returning the same Var for the same name.
// It panics beyond maxVars distinct names: a net's variables are fixed by
// its construction code, never by input.
func (n *Net) Var(name string) Var {
	for i, v := range n.vars {
		if v == name {
			return Var(i)
		}
	}
	if len(n.vars) == maxVars {
		panic(fmt.Sprintf("petrinet: more than %d variables (adding %q)", maxVars, name))
	}
	n.vars = append(n.vars, name)
	return Var(len(n.vars) - 1)
}

// AddPlace creates a place with the given name.
func (n *Net) AddPlace(name string) *Place {
	p := &Place{Name: name, idx: len(n.places)}
	n.places = append(n.places, p)
	n.marking = append(n.marking, nil)
	return p
}

// AddTransition registers a transition. Arcs must reference places of this
// net.
func (n *Net) AddTransition(t *Transition) *Transition {
	t.idx = len(n.transitions)
	n.transitions = append(n.transitions, t)
	return t
}

// Transitions returns the transitions in creation order.
func (n *Net) Transitions() []*Transition { return n.transitions }

// Put adds a token to a place.
func (n *Net) Put(p *Place, t Token) {
	n.marking[p.idx] = append(n.marking[p.idx], t)
}

// Drain removes all tokens from a place, keeping its storage.
func (n *Net) Drain(p *Place) {
	n.marking[p.idx] = n.marking[p.idx][:0]
}

// Tokens returns the tokens currently marking a place (not copied).
func (n *Net) Tokens(p *Place) []Token { return n.marking[p.idx] }

// TokenCount returns how many tokens mark a place. It is the paper's
// function M(p) telling, e.g., how many cores a place represents.
func (n *Net) TokenCount(p *Place) int { return len(n.marking[p.idx]) }

// Enabled reports whether transition t can fire under the current marking
// and, if so, the binding it would fire with: the head token of every
// input place, merged. It does not mutate the marking.
func (n *Net) Enabled(t *Transition) (Binding, bool) {
	var b Binding
	for _, arc := range t.In {
		toks := n.marking[arc.Place.idx]
		if len(toks) == 0 {
			return Binding{}, false
		}
		b = b.merge(toks[0])
	}
	if t.Guard != nil && !t.Guard(b) {
		return Binding{}, false
	}
	return b, true
}

// Fire fires transition t: consumes one token from every input place,
// produces tokens on the output places. It returns the binding used, or an
// error if the transition is not enabled.
func (n *Net) Fire(t *Transition) (Binding, error) {
	b, ok := n.Enabled(t)
	if !ok {
		return Binding{}, fmt.Errorf("petrinet: transition %s not enabled", t.Name)
	}
	n.fire(t, b)
	return b, nil
}

// fire applies an enabled transition under binding b. Popping the head
// shifts the remainder down so the place keeps its backing array.
func (n *Net) fire(t *Transition, b Binding) {
	for _, arc := range t.In {
		toks := n.marking[arc.Place.idx]
		n.marking[arc.Place.idx] = toks[:copy(toks, toks[1:])]
	}
	for _, arc := range t.Out {
		n.Put(arc.Place, arc.Expr(b))
	}
}

// Step fires the first enabled transition in registration order, returning
// it and its binding, or (nil, Binding{}) when the net is quiescent.
func (n *Net) Step() (*Transition, Binding) {
	for _, t := range n.transitions {
		if b, ok := n.Enabled(t); ok {
			n.fire(t, b)
			return t, b
		}
	}
	return nil, Binding{}
}

// TokenString renders a token deterministically with its variables sorted
// by name, e.g. "{nalloc:3 u:99}".
func (n *Net) TokenString(t Token) string {
	var vars []int
	for i := range n.vars {
		if t.Has(Var(i)) {
			vars = append(vars, i)
		}
	}
	sort.Slice(vars, func(i, j int) bool { return n.vars[vars[i]] < n.vars[vars[j]] })
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = fmt.Sprintf("%s:%d", n.vars[v], t.vals[v])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// varNames renders an arc inscription, e.g. "u,nalloc".
func (n *Net) varNames(vars []Var) string {
	names := make([]string, len(vars))
	for i, v := range vars {
		names[i] = n.vars[v]
	}
	return strings.Join(names, ",")
}

// MarkingString renders the full marking deterministically (diagnostics).
func (n *Net) MarkingString() string {
	var b strings.Builder
	for _, p := range n.places {
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		b.WriteString(p.Name)
		b.WriteString("=[")
		for i, tok := range n.marking[p.idx] {
			if i > 0 {
				b.WriteString(" ")
			}
			b.WriteString(n.TokenString(tok))
		}
		b.WriteString("]")
	}
	return b.String()
}
