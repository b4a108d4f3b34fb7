package petrinet

// ref_test.go is the specification: the Section III-B net as a
// Predicate/Transition net, map-based and deliberately naive (it allocates
// a map per binding and per token). Places hold value-carrying tokens,
// transitions fire under guards, Step fires the first enabled transition
// in registration order, Explore walks the reachable markings, and the
// Pre, Post and incidence matrices of Figures 8-11 are read off its arcs.
// ElasticNet is the closed form of refElasticNet's decision, and
// diff_test.go and fuzz_test.go prove the two equal; nothing outside the
// tests may use this file.

import (
	"fmt"
	"sort"
	"strings"
)

type refToken map[string]int

func (t refToken) clone() refToken {
	out := make(refToken, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

func (t refToken) String() string {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, t[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

type refBinding map[string]int

// refPlace is a place of the net. Vars is the inscription of every arc
// that touches it: the variables its tokens carry, e.g. "u,nalloc".
type refPlace struct {
	Name, Vars string
	idx        int
}

type refOutArc struct {
	Place *refPlace
	Expr  func(refBinding) refToken
}

type refTransition struct {
	Name  string
	Guard func(refBinding) bool
	In    []*refPlace
	Out   []refOutArc
	idx   int
}

type refNet struct {
	places      []*refPlace
	transitions []*refTransition
	marking     map[*refPlace][]refToken
}

func newRefNet() *refNet { return &refNet{marking: make(map[*refPlace][]refToken)} }

func (n *refNet) AddPlace(name, vars string) *refPlace {
	p := &refPlace{Name: name, Vars: vars, idx: len(n.places)}
	n.places = append(n.places, p)
	return p
}

func (n *refNet) AddTransition(t *refTransition) *refTransition {
	t.idx = len(n.transitions)
	n.transitions = append(n.transitions, t)
	return t
}

func (n *refNet) Put(p *refPlace, t refToken) { n.marking[p] = append(n.marking[p], t.clone()) }

func (n *refNet) Drain(p *refPlace) { n.marking[p] = nil }

func (n *refNet) Tokens(p *refPlace) []refToken { return n.marking[p] }

func (n *refNet) TokenCount(p *refPlace) int { return len(n.marking[p]) }

func (n *refNet) bind(t *refTransition) (refBinding, bool) {
	b := make(refBinding)
	for _, p := range t.In {
		toks := n.marking[p]
		if len(toks) == 0 {
			return nil, false
		}
		for k, v := range toks[0] {
			b[k] = v
		}
	}
	return b, true
}

func (n *refNet) Enabled(t *refTransition) (refBinding, bool) {
	b, ok := n.bind(t)
	if !ok {
		return nil, false
	}
	if t.Guard != nil && !t.Guard(b) {
		return nil, false
	}
	return b, true
}

func (n *refNet) Fire(t *refTransition) (refBinding, error) {
	b, ok := n.Enabled(t)
	if !ok {
		return nil, fmt.Errorf("petrinet: transition %s not enabled", t.Name)
	}
	for _, p := range t.In {
		n.marking[p] = n.marking[p][1:]
	}
	for _, arc := range t.Out {
		n.marking[arc.Place] = append(n.marking[arc.Place], arc.Expr(b))
	}
	return b, nil
}

func (n *refNet) Step() (*refTransition, refBinding) {
	for _, t := range n.transitions {
		if b, ok := n.Enabled(t); ok {
			if _, err := n.Fire(t); err == nil {
				return t, b
			}
		}
	}
	return nil, nil
}

func (n *refNet) MarkingString() string {
	var b strings.Builder
	for _, p := range n.places {
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%v", p.Name, n.marking[p])
	}
	return b.String()
}

// Pre is the pre-condition matrix, [place][transition]: 1 iff an arc
// <p, t> exists (the place feeds the transition).
func (n *refNet) Pre() [][]int {
	return n.matrix(func(t *refTransition, add func(*refPlace)) {
		for _, p := range t.In {
			add(p)
		}
	})
}

// Post is the post-condition matrix: 1 iff an arc <t, p> exists.
func (n *refNet) Post() [][]int {
	return n.matrix(func(t *refTransition, add func(*refPlace)) {
		for _, arc := range t.Out {
			add(arc.Place)
		}
	})
}

// Incidence is A^T = Post - Pre.
func (n *refNet) Incidence() [][]int {
	inc, pre := n.Post(), n.Pre()
	for p := range inc {
		for t := range inc[p] {
			inc[p][t] -= pre[p][t]
		}
	}
	return inc
}

func (n *refNet) matrix(arcs func(*refTransition, func(*refPlace))) [][]int {
	m := make([][]int, len(n.places))
	for p := range m {
		m[p] = make([]int, len(n.transitions))
	}
	for _, t := range n.transitions {
		arcs(t, func(p *refPlace) { m[p.idx][t.idx] = 1 })
	}
	return m
}

// SymbolicPre is Pre with the arc inscriptions in its cells, the paper's
// rendering ("u", "nalloc"); "" where there is no arc.
func (n *refNet) SymbolicPre() [][]string {
	pre := n.Pre()
	m := make([][]string, len(pre))
	for p, row := range pre {
		m[p] = make([]string, len(row))
		for t, arc := range row {
			if arc == 1 {
				m[p][t] = n.places[p].Vars
			}
		}
	}
	return m
}

// MatrixString renders a places × transitions matrix as an aligned table.
func (n *refNet) MatrixString(m [][]int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "")
	for _, t := range n.transitions {
		fmt.Fprintf(&b, "%6s", t.Name)
	}
	b.WriteByte('\n')
	for p, row := range m {
		fmt.Fprintf(&b, "%-10s", n.places[p].Name)
		for _, v := range row {
			fmt.Fprintf(&b, "%6d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// markingKey is a canonical encoding of a marking, a map key during
// state-space exploration.
type markingKey string

func (n *refNet) markingKey() markingKey {
	var b strings.Builder
	for _, p := range n.places {
		b.WriteString(p.Name)
		b.WriteByte('=')
		toks := n.marking[p]
		parts := make([]string, len(toks))
		for i, tok := range toks {
			parts[i] = tok.String()
		}
		sort.Strings(parts)
		b.WriteString(strings.Join(parts, ","))
		b.WriteByte(';')
	}
	return markingKey(b.String())
}

func (n *refNet) snapshotMarking() map[*refPlace][]refToken {
	out := make(map[*refPlace][]refToken, len(n.marking))
	for p, toks := range n.marking {
		cp := make([]refToken, len(toks))
		for i, tok := range toks {
			cp[i] = tok.clone()
		}
		out[p] = cp
	}
	return out
}

func (n *refNet) restoreMarking(m map[*refPlace][]refToken) {
	n.marking = make(map[*refPlace][]refToken, len(m))
	for p, toks := range m {
		cp := make([]refToken, len(toks))
		for i, tok := range toks {
			cp[i] = tok.clone()
		}
		n.marking[p] = cp
	}
}

// reachability summarizes a bounded state-space exploration.
type reachability struct {
	// States is the number of distinct markings reached.
	States int
	// MaxTokensPerPlace is the bound observed on any single place
	// (k-safety: the net is k-safe iff this is <= k).
	MaxTokensPerPlace int
	// Deadlocks lists markings with no enabled transition.
	Deadlocks []markingKey
	// Bounds is the least and greatest value each variable takes in any
	// reachable token.
	Bounds map[string][2]int
	// Truncated reports whether the exploration hit the state limit.
	Truncated bool
}

// Explore performs a breadth-first reachability analysis from the current
// marking, firing every enabled transition at every state, up to maxStates
// distinct markings, and restores the marking afterwards. It is exact for
// the elastic net: its guards keep nalloc in [1, ntotal] and the injected
// reading never changes.
func (n *refNet) Explore(maxStates int) reachability {
	saved := n.snapshotMarking()
	defer n.restoreMarking(saved)

	res := reachability{Bounds: map[string][2]int{}}
	seen := map[markingKey]bool{}
	queue := []map[*refPlace][]refToken{n.snapshotMarking()}

	for len(queue) > 0 {
		if res.States >= maxStates {
			res.Truncated = true
			break
		}
		cur := queue[0]
		queue = queue[1:]
		n.restoreMarking(cur)
		key := n.markingKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		res.States++
		for _, toks := range cur {
			res.MaxTokensPerPlace = max(res.MaxTokensPerPlace, len(toks))
			for _, tok := range toks {
				for k, v := range tok {
					b, ok := res.Bounds[k]
					if !ok {
						b = [2]int{v, v}
					}
					res.Bounds[k] = [2]int{min(b[0], v), max(b[1], v)}
				}
			}
		}
		fired := 0
		for _, t := range n.transitions {
			n.restoreMarking(cur)
			if _, ok := n.Enabled(t); !ok {
				continue
			}
			if _, err := n.Fire(t); err != nil {
				continue
			}
			fired++
			queue = append(queue, n.snapshotMarking())
		}
		if fired == 0 {
			res.Deadlocks = append(res.Deadlocks, key)
		}
	}
	return res
}

// refElasticNet is the Section III-B net on the specification.
type refElasticNet struct {
	net                                       *refNet
	Checks, Provision, Idle, Stable, Overload *refPlace
	T                                         [8]*refTransition
}

func newRefElasticNet(thMin, thMax, nTotal int) *refElasticNet {
	e := &refElasticNet{net: newRefNet()}
	n := e.net

	e.Checks = n.AddPlace("Checks", "u")
	e.Provision = n.AddPlace("Provision", "nalloc")
	e.Idle = n.AddPlace("Idle", "u,nalloc")
	e.Stable = n.AddPlace("Stable", "u")
	e.Overload = n.AddPlace("Overload", "u,nalloc")

	carryBoth := func(b refBinding) refToken { return refToken{"u": b["u"], "nalloc": b["nalloc"]} }
	toChecks := func(b refBinding) refToken { return refToken{"u": b["u"]} }

	// Idle sub-net (Figure 10): low load releases a core, bounded below by
	// one core (t7).
	e.T[0] = n.AddTransition(&refTransition{
		Name:  "t0",
		Guard: func(b refBinding) bool { return b["u"] <= thMin },
		In:    []*refPlace{e.Checks, e.Provision},
		Out:   []refOutArc{{Place: e.Idle, Expr: carryBoth}},
	})
	e.T[4] = n.AddTransition(&refTransition{
		Name:  "t4",
		Guard: func(b refBinding) bool { return b["nalloc"] > 1 },
		In:    []*refPlace{e.Idle},
		Out: []refOutArc{
			{Place: e.Provision, Expr: func(b refBinding) refToken { return refToken{"nalloc": b["nalloc"] - 1} }},
			{Place: e.Checks, Expr: toChecks},
		},
	})
	e.T[7] = n.AddTransition(&refTransition{
		Name:  "t7",
		Guard: func(b refBinding) bool { return b["nalloc"] == 1 },
		In:    []*refPlace{e.Idle},
		Out: []refOutArc{
			{Place: e.Provision, Expr: func(b refBinding) refToken { return refToken{"nalloc": b["nalloc"]} }},
			{Place: e.Checks, Expr: toChecks},
		},
	})
	// Overload sub-net (Figure 9): high load allocates a core, bounded
	// above by the hardware (t6).
	e.T[1] = n.AddTransition(&refTransition{
		Name:  "t1",
		Guard: func(b refBinding) bool { return b["u"] >= thMax },
		In:    []*refPlace{e.Checks, e.Provision},
		Out:   []refOutArc{{Place: e.Overload, Expr: carryBoth}},
	})
	e.T[5] = n.AddTransition(&refTransition{
		Name:  "t5",
		Guard: func(b refBinding) bool { return b["nalloc"] < nTotal },
		In:    []*refPlace{e.Overload},
		Out: []refOutArc{
			{Place: e.Provision, Expr: func(b refBinding) refToken { return refToken{"nalloc": b["nalloc"] + 1} }},
			{Place: e.Checks, Expr: toChecks},
		},
	})
	e.T[6] = n.AddTransition(&refTransition{
		Name:  "t6",
		Guard: func(b refBinding) bool { return b["nalloc"] == nTotal },
		In:    []*refPlace{e.Overload},
		Out: []refOutArc{
			{Place: e.Provision, Expr: func(b refBinding) refToken { return refToken{"nalloc": b["nalloc"]} }},
			{Place: e.Checks, Expr: toChecks},
		},
	})
	// Stable sub-net (Figure 11): load within thresholds, monitoring only.
	e.T[2] = n.AddTransition(&refTransition{
		Name:  "t2",
		Guard: func(b refBinding) bool { return b["u"] > thMin && b["u"] < thMax },
		In:    []*refPlace{e.Checks},
		Out:   []refOutArc{{Place: e.Stable, Expr: toChecks}},
	})
	e.T[3] = n.AddTransition(&refTransition{
		Name: "t3",
		In:   []*refPlace{e.Stable},
		Out:  []refOutArc{{Place: e.Checks, Expr: toChecks}},
	})

	// Initial marking: one core allocated by default.
	n.Put(e.Provision, refToken{"nalloc": 1})
	return e
}

func (e *refElasticNet) NAlloc() int {
	toks := e.net.Tokens(e.Provision)
	if len(toks) == 0 {
		return 0
	}
	return toks[0]["nalloc"]
}

func (e *refElasticNet) SetNAlloc(n int) {
	e.net.Drain(e.Provision)
	e.net.Put(e.Provision, refToken{"nalloc": n})
}

// Evaluate injects the reading u into Checks, replacing any stale token,
// and fires until the token is back in Checks (at most two firings: a
// state transition and an action). The label names the fired path;
// "quiescent", "t0-Idle" and "t1-Overload" are the stranded paths of a
// Provision marking outside [1, ntotal].
func (e *refElasticNet) Evaluate(u int) Evaluation {
	e.net.Drain(e.Checks)
	e.net.Put(e.Checks, refToken{"u": u})

	ev := Evaluation{U: u, NAlloc: e.NAlloc(), Decision: DecisionNone}
	var path []string
	for i := 0; i < 2; i++ {
		t, _ := e.net.Step()
		if t == nil {
			break
		}
		path = append(path, t.Name)
		switch t {
		case e.T[0]:
			ev.State = "Idle"
		case e.T[1]:
			ev.State = "Overload"
		case e.T[2]:
			ev.State = "Stable"
		case e.T[4]:
			ev.Decision = DecisionRelease
		case e.T[5]:
			ev.Decision = DecisionAllocate
		}
		if e.net.TokenCount(e.Checks) > 0 {
			break
		}
	}
	ev.NAlloc = e.NAlloc()
	switch len(path) {
	case 0:
		ev.Label = "quiescent"
	case 1:
		ev.Label = path[0] + "-" + ev.State
	default:
		ev.Label = path[0] + "-" + ev.State + "-" + path[1]
	}
	return ev
}
