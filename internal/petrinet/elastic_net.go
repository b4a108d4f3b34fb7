package petrinet

import "fmt"

// elastic_net.go builds the concrete PrT net of Section III-B: places
// P = {Stable, Idle, Overload, Provision, Checks}, transitions t0..t7,
// and the rule-condition-action pipeline that decides core allocation.
//
// Tokens: Checks carries {u} — the current resource usage (CPU load % or a
// scaled HT/IMC ratio); Provision carries {nalloc} — the number of cores
// currently handed to the OS. The three performance-state places hold the
// in-flight token while a decision path completes.

// Decision is the action produced by one evaluation of the net.
type Decision int

const (
	// DecisionNone: the database is Stable (or at an allocation bound);
	// only monitoring is required.
	DecisionNone Decision = iota
	// DecisionAllocate: the Overload sub-net fired t1 -> t5; hand one more
	// core to the OS.
	DecisionAllocate
	// DecisionRelease: the Idle sub-net fired t0 -> t4; take one core back
	// from the OS.
	DecisionRelease
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case DecisionAllocate:
		return "allocate"
	case DecisionRelease:
		return "release"
	default:
		return "none"
	}
}

// Evaluation records one pass through the net: the decision, the fired
// path label in the paper's "t1-Overload-t5" style, and the state the
// database was classified into.
type Evaluation struct {
	Decision Decision
	// Label is the fired transition path, e.g. "t2-Stable-t3",
	// "t1-Overload-t5", "t0-Idle-t7".
	Label string
	// State is the performance-state place the token passed through.
	State string
	// U and NAlloc are the token values the evaluation used.
	U, NAlloc int
}

// ElasticNet is the paper's elastic multi-core allocation net.
type ElasticNet struct {
	net *Net

	// Places (exported for matrix inspection and tests).
	Checks, Provision, Idle, Stable, Overload *Place
	// Transitions t0..t7 indexed by number.
	T [8]*Transition
	// u and nalloc are the net's two variables ("u", "nalloc"): the load
	// reading carried by Checks tokens and the core count carried by
	// Provision tokens.
	u, nalloc Var
}

// NewElasticNet wires the net for a machine with nTotal cores and the
// given thresholds (the paper's rules of thumb: thmin=10, thmax=70 for CPU
// load). The initial marking is m0(Provision) = {nalloc: 1}: one core
// initially allocated (Section III-B).
func NewElasticNet(thMin, thMax, nTotal int) *ElasticNet {
	if thMin >= thMax {
		panic(fmt.Sprintf("petrinet: thMin (%d) must be below thMax (%d)", thMin, thMax))
	}
	if nTotal < 1 {
		panic("petrinet: nTotal must be at least 1")
	}
	e := &ElasticNet{net: New()}
	n := e.net

	e.Checks = n.AddPlace("Checks")
	e.Provision = n.AddPlace("Provision")
	e.Idle = n.AddPlace("Idle")
	e.Stable = n.AddPlace("Stable")
	e.Overload = n.AddPlace("Overload")

	u, na := n.Var("u"), n.Var("nalloc")
	e.u, e.nalloc = u, na
	onlyU, onlyNA, both := []Var{u}, []Var{na}, []Var{u, na}

	carryBoth := func(b Binding) Token { return Tok(u, b.Get(u)).With(na, b.Get(na)) }
	toChecks := func(b Binding) Token { return Tok(u, b.Get(u)) }
	// provision builds the arc returning nalloc+delta to Provision.
	provision := func(delta int) OutArc {
		return OutArc{Place: e.Provision, Vars: onlyNA, Expr: func(b Binding) Token { return Tok(na, b.Get(na)+delta) }}
	}
	fromChecksAndProvision := []InArc{{Place: e.Checks, Vars: onlyU}, {Place: e.Provision, Vars: onlyNA}}
	backToChecks := OutArc{Place: e.Checks, Vars: onlyU, Expr: toChecks}

	// Idle sub-net (Figure 10): low load releases a core, bounded below by
	// one core (t7).
	e.T[0] = n.AddTransition(&Transition{
		Name:      "t0",
		Guard:     func(b Binding) bool { return b.Get(u) <= thMin },
		GuardDesc: fmt.Sprintf("u <= %d", thMin),
		In:        fromChecksAndProvision,
		Out:       []OutArc{{Place: e.Idle, Vars: both, Expr: carryBoth}},
	})
	e.T[4] = n.AddTransition(&Transition{
		Name:      "t4",
		Guard:     func(b Binding) bool { return b.Get(na) > 1 },
		GuardDesc: "nalloc > 1",
		In:        []InArc{{Place: e.Idle, Vars: both}},
		Out:       []OutArc{provision(-1), backToChecks},
	})
	e.T[7] = n.AddTransition(&Transition{
		Name:      "t7",
		Guard:     func(b Binding) bool { return b.Get(na) == 1 },
		GuardDesc: "nalloc == 1",
		In:        []InArc{{Place: e.Idle, Vars: both}},
		Out:       []OutArc{provision(0), backToChecks},
	})

	// Overload sub-net (Figure 9): high load allocates a core, bounded
	// above by the hardware (t6).
	e.T[1] = n.AddTransition(&Transition{
		Name:      "t1",
		Guard:     func(b Binding) bool { return b.Get(u) >= thMax },
		GuardDesc: fmt.Sprintf("u >= %d", thMax),
		In:        fromChecksAndProvision,
		Out:       []OutArc{{Place: e.Overload, Vars: both, Expr: carryBoth}},
	})
	e.T[5] = n.AddTransition(&Transition{
		Name:      "t5",
		Guard:     func(b Binding) bool { return b.Get(na) < nTotal },
		GuardDesc: fmt.Sprintf("nalloc < %d", nTotal),
		In:        []InArc{{Place: e.Overload, Vars: both}},
		Out:       []OutArc{provision(+1), backToChecks},
	})
	e.T[6] = n.AddTransition(&Transition{
		Name:      "t6",
		Guard:     func(b Binding) bool { return b.Get(na) == nTotal },
		GuardDesc: fmt.Sprintf("nalloc == %d", nTotal),
		In:        []InArc{{Place: e.Overload, Vars: both}},
		Out:       []OutArc{provision(0), backToChecks},
	})

	// Stable sub-net (Figure 11): load within thresholds, monitoring only.
	e.T[2] = n.AddTransition(&Transition{
		Name:      "t2",
		Guard:     func(b Binding) bool { return b.Get(u) > thMin && b.Get(u) < thMax },
		GuardDesc: fmt.Sprintf("%d < u < %d", thMin, thMax),
		In:        []InArc{{Place: e.Checks, Vars: onlyU}},
		Out:       []OutArc{{Place: e.Stable, Vars: onlyU, Expr: toChecks}},
	})
	e.T[3] = n.AddTransition(&Transition{
		Name:      "t3",
		In:        []InArc{{Place: e.Stable, Vars: onlyU}},
		Out:       []OutArc{backToChecks},
		GuardDesc: "true",
	})

	// Initial marking: one core allocated by default.
	n.Put(e.Provision, Tok(na, 1))
	return e
}

// Net exposes the underlying PrT net (for matrices and inspection).
func (e *ElasticNet) Net() *Net { return e.net }

// NAlloc returns the current number of allocated cores recorded in the
// Provision place.
func (e *ElasticNet) NAlloc() int {
	toks := e.net.Tokens(e.Provision)
	if len(toks) == 0 {
		return 0
	}
	return toks[0].Get(e.nalloc)
}

// SetNAlloc overrides the Provision marking (used when the allocator could
// not honour a decision, keeping net state and reality in sync).
func (e *ElasticNet) SetNAlloc(n int) {
	e.net.Drain(e.Provision)
	e.net.Put(e.Provision, Tok(e.nalloc, n))
}

// Evaluate runs one control period: it injects the current load reading u
// into Checks and fires transitions until the token returns to Checks,
// producing the allocation decision. This is the rule-condition-action
// pipeline: rule = sub-net, condition = guard, action = decision.
//
// The label names the path in the paper's Figure 7 style. Each action
// transition has one possible predecessor (only t0 feeds Idle, only t1
// Overload, only t2 Stable), so the eight paths are constants and
// labelling allocates nothing: "quiescent", "t0-Idle" and "t1-Overload"
// (no action enabled: Provision out of [1, ntotal]), and the five complete
// paths.
func (e *ElasticNet) Evaluate(u int) Evaluation {
	// Inject the fresh reading, replacing any stale Checks token.
	e.net.Drain(e.Checks)
	e.net.Put(e.Checks, Tok(e.u, u))

	ev := Evaluation{U: u, NAlloc: e.NAlloc(), Decision: DecisionNone, Label: "quiescent"}
	// A complete path is at most two firings (state transition + action).
	for i := 0; i < 2; i++ {
		t, _ := e.net.Step()
		if t == nil {
			break
		}
		switch t {
		case e.T[0]:
			ev.State, ev.Label = "Idle", "t0-Idle"
		case e.T[1]:
			ev.State, ev.Label = "Overload", "t1-Overload"
		case e.T[2]:
			ev.State, ev.Label = "Stable", "t2-Stable"
		case e.T[3]:
			ev.Label = "t2-Stable-t3"
		case e.T[4]:
			ev.Decision, ev.Label = DecisionRelease, "t0-Idle-t4"
		case e.T[5]:
			ev.Decision, ev.Label = DecisionAllocate, "t1-Overload-t5"
		case e.T[6]:
			ev.Label = "t1-Overload-t6"
		case e.T[7]:
			ev.Label = "t0-Idle-t7"
		}
		// Stop once the token is back in Checks.
		if e.net.TokenCount(e.Checks) > 0 {
			break
		}
	}
	ev.NAlloc = e.NAlloc()
	return ev
}
