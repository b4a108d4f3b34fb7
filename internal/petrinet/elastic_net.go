// Package petrinet holds the decision of the paper's elastic net
// (Section III-B): a Predicate/Transition net over the places P =
// {Stable, Idle, Overload, Provision, Checks} and transitions t0..t7 that
// turns a load reading into a core allocation decision.
//
// Checks carries {u}, the current resource usage (CPU load % or a scaled
// HT/IMC ratio); Provision carries {nalloc}, the number of cores handed to
// the OS. For thresholds thmin < thmax and a machine of ntotal cores, one
// control period fires exactly one of five complete paths, so the net's
// decision is a function of (u, nalloc). ElasticNet is that function in
// closed form. The net itself, places, guarded transitions, firing and
// reachability, is the specification in this package's tests, and the
// closed form is proven equal to it over its whole input domain.
package petrinet

import "fmt"

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

// ElasticNet is the paper's elastic multi-core allocation net: its
// thresholds, the machine size, and the Provision marking nalloc.
type ElasticNet struct {
	thMin, thMax, nTotal int
	nalloc               int
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
	return &ElasticNet{thMin: thMin, thMax: thMax, nTotal: nTotal, nalloc: 1}
}

// NAlloc returns the current number of allocated cores recorded in the
// Provision place.
func (e *ElasticNet) NAlloc() int { return e.nalloc }

// SetNAlloc overrides the Provision marking (used when the allocator could
// not honour a decision, keeping net state and reality in sync). n must lie
// in [1, nTotal], the domain in which the net is bounded (Section III-B):
// outside it no action transition is enabled and the net would strand its
// token in Idle or Overload.
func (e *ElasticNet) SetNAlloc(n int) {
	if n < 1 || n > e.nTotal {
		panic(fmt.Sprintf("petrinet: nalloc %d outside [1, %d]", n, e.nTotal))
	}
	e.nalloc = n
}

// Evaluate runs one control period on the load reading u and returns the
// decision of the path it fires. This is the rule-condition-action
// pipeline: rule = sub-net, condition = guard, action = decision.
//
//   - u <= thmin fires t0 into Idle, then t4 (release one core) or, at one
//     core, t7.
//   - u >= thmax fires t1 into Overload, then t5 (allocate one core) or,
//     at ntotal cores, t6.
//   - otherwise t2 and t3 cycle the reading through Stable.
func (e *ElasticNet) Evaluate(u int) Evaluation {
	ev := Evaluation{U: u, State: "Stable", Label: "t2-Stable-t3"}
	switch {
	case u <= e.thMin:
		ev.State, ev.Label = "Idle", "t0-Idle-t7"
		if e.nalloc > 1 {
			e.nalloc--
			ev.Decision, ev.Label = DecisionRelease, "t0-Idle-t4"
		}
	case u >= e.thMax:
		ev.State, ev.Label = "Overload", "t1-Overload-t6"
		if e.nalloc < e.nTotal {
			e.nalloc++
			ev.Decision, ev.Label = DecisionAllocate, "t1-Overload-t5"
		}
	}
	ev.NAlloc = e.nalloc
	return ev
}
