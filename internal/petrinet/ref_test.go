package petrinet

// ref_test.go is the oracle for the slot-token net: the map-based PrT net
// this package shipped before tokens became fixed-size values, kept
// verbatim (names prefixed ref) so the differential tests in
// diff_test.go can drive both through the same inputs. It allocates a map
// per binding and per token and is deliberately naive; nothing outside the
// tests may use it.

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

type refPlace struct{ Name string }

type refOutArc struct {
	Place *refPlace
	Expr  func(refBinding) refToken
}

type refTransition struct {
	Name  string
	Guard func(refBinding) bool
	In    []*refPlace
	Out   []refOutArc
}

type refNet struct {
	places      []*refPlace
	transitions []*refTransition
	marking     map[*refPlace][]refToken
}

func newRefNet() *refNet { return &refNet{marking: make(map[*refPlace][]refToken)} }

func (n *refNet) AddPlace(name string) *refPlace {
	p := &refPlace{Name: name}
	n.places = append(n.places, p)
	return p
}

func (n *refNet) AddTransition(t *refTransition) *refTransition {
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

func (n *refNet) markingKey() MarkingKey {
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
	return MarkingKey(b.String())
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

func (n *refNet) Explore(maxStates int) Reachability {
	saved := n.snapshotMarking()
	defer n.restoreMarking(saved)

	res := Reachability{}
	seen := map[MarkingKey]bool{}
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
			if len(toks) > res.MaxTokensPerPlace {
				res.MaxTokensPerPlace = len(toks)
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

// refElasticNet is the Section III-B net on the map-based reference.
type refElasticNet struct {
	net                                       *refNet
	Checks, Provision, Idle, Stable, Overload *refPlace
	T                                         [8]*refTransition
}

func newRefElasticNet(thMin, thMax, nTotal int) *refElasticNet {
	e := &refElasticNet{net: newRefNet()}
	n := e.net

	e.Checks = n.AddPlace("Checks")
	e.Provision = n.AddPlace("Provision")
	e.Idle = n.AddPlace("Idle")
	e.Stable = n.AddPlace("Stable")
	e.Overload = n.AddPlace("Overload")

	carryBoth := func(b refBinding) refToken { return refToken{"u": b["u"], "nalloc": b["nalloc"]} }
	toChecks := func(b refBinding) refToken { return refToken{"u": b["u"]} }

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
