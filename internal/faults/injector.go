package faults

import "elasticore/internal/hashmix"

// injector.go compiles a Plan against one fleet shape and clock into
// integer-cycle windows, then tracks which faults are live as the fleet
// clock advances. All state transitions happen inside Advance, in a
// deterministic order; the point queries between two Advance calls are
// pure reads.

// transition is one compiled window edge.
type transition struct {
	at    uint64 // fleet cycle
	index int    // plan fault index
	start bool
}

// Change reports one fault window edge applied by Advance.
type Change struct {
	// Index is the fault's position in the plan.
	Index int
	// Start is true when the window opened, false when it closed.
	Start bool
	// At is the compiled trigger cycle.
	At uint64
}

// Injector is a compiled Plan tracking live fault state.
type Injector struct {
	plan  *Plan
	cores int

	transitions []transition
	next        int
	active      []bool // per plan fault

	down      []bool     // per machine: any live crash
	factor    [][]uint64 // per machine, per core: combined slowdown (1 = none)
	linkDelay []uint64   // per machine: summed live link delay, cycles
	linkDrop  []float64  // per machine: max live drop probability
	delayC    []uint64   // per fault: compiled link delay
	changeBuf []Change   // reusable Advance result buffer
}

// Compile freezes the plan against a fleet shape. secondsToCycles is
// the fleet clock's conversion (topology-dependent); it must be
// monotone. The plan must already Validate against (machines, cores).
func (p *Plan) Compile(machines, cores int, secondsToCycles func(float64) uint64) *Injector {
	in := &Injector{
		plan:      p,
		cores:     cores,
		active:    make([]bool, len(p.Faults)),
		down:      make([]bool, machines),
		factor:    make([][]uint64, machines),
		linkDelay: make([]uint64, machines),
		linkDrop:  make([]float64, machines),
		delayC:    make([]uint64, len(p.Faults)),
	}
	for m := range in.factor {
		in.factor[m] = make([]uint64, cores)
		for c := range in.factor[m] {
			in.factor[m][c] = 1
		}
	}
	for i, f := range p.Faults {
		start := secondsToCycles(f.At)
		in.transitions = append(in.transitions, transition{at: start, index: i, start: true})
		if f.For > 0 {
			in.transitions = append(in.transitions, transition{at: secondsToCycles(f.At + f.For), index: i, start: false})
		}
		if f.Kind == Link {
			in.delayC[i] = secondsToCycles(f.Delay)
		}
	}
	sortTransitions(in.transitions)
	return in
}

// Advance applies every window edge due at or before now and returns
// them in application order. The returned slice is valid until the
// next call.
func (in *Injector) Advance(now uint64) []Change {
	if in == nil || in.next >= len(in.transitions) || in.transitions[in.next].at > now {
		return nil
	}
	changes := in.changeBuf[:0]
	for in.next < len(in.transitions) && in.transitions[in.next].at <= now {
		tr := in.transitions[in.next]
		in.next++
		if in.active[tr.index] == tr.start {
			continue // duplicate edge (permanent fault re-armed); impossible today
		}
		in.active[tr.index] = tr.start
		in.recompute(in.plan.Faults[tr.index].Machine)
		changes = append(changes, Change{Index: tr.index, Start: tr.start, At: tr.at})
	}
	in.changeBuf = changes
	return changes
}

// recompute rebuilds machine m's live state from the active fault set.
// Plans are tiny, so a full rebuild per edge is cheaper than
// maintaining incremental per-kind counts.
func (in *Injector) recompute(m int) {
	in.down[m] = false
	for c := range in.factor[m] {
		in.factor[m][c] = 1
	}
	in.linkDelay[m] = 0
	in.linkDrop[m] = 0
	for i, f := range in.plan.Faults {
		if !in.active[i] || f.Machine != m {
			continue
		}
		switch f.Kind {
		case Crash:
			in.down[m] = true
		case Stall, Slow:
			factor := StallFactor
			if f.Kind == Slow {
				factor = f.Factor
			}
			lo, hi := f.Core, f.CoreHi
			if lo < 0 {
				lo, hi = 0, in.cores-1
			}
			if hi >= in.cores {
				hi = in.cores - 1
			}
			for c := lo; c <= hi; c++ {
				if factor > in.factor[m][c] {
					in.factor[m][c] = factor
				}
			}
		case Link:
			in.linkDelay[m] += in.delayC[i]
			if f.Drop > in.linkDrop[m] {
				in.linkDrop[m] = f.Drop
			}
		}
	}
}

// Done reports whether every window edge has been applied.
func (in *Injector) Done() bool { return in == nil || in.next >= len(in.transitions) }

// NextEdge returns the cycle of the next un-applied window edge, or
// ^uint64(0) when every edge has been applied. The parallel fleet engine
// caps decoupled stretches at it so Advance applies each edge on exactly
// the quantum a sequential run would have.
func (in *Injector) NextEdge() uint64 {
	if in.Done() {
		return ^uint64(0)
	}
	return in.transitions[in.next].at
}

// Down reports whether machine m is currently crashed.
func (in *Injector) Down(m int) bool { return in != nil && in.down[m] }

// CoreFactor returns core (m, c)'s combined slowdown factor: 1 when
// healthy, StallFactor when frozen.
func (in *Injector) CoreFactor(m, c int) uint64 {
	if in == nil {
		return 1
	}
	return in.factor[m][c]
}

// LinkDelay returns the added routing latency to machine m in cycles.
func (in *Injector) LinkDelay(m int) uint64 {
	if in == nil {
		return 0
	}
	return in.linkDelay[m]
}

// LinkDrop returns the live drop probability toward machine m.
func (in *Injector) LinkDrop(m int) float64 {
	if in == nil {
		return 0
	}
	return in.linkDrop[m]
}

// DropRoll decides deterministically whether roll n toward machine m
// is dropped under the live drop probability. Callers must supply
// distinct roll numbers (e.g. a request id) — the decision depends
// only on (plan seed, machine, n), never on call order.
func (in *Injector) DropRoll(m int, n uint64) bool {
	if in == nil {
		return false
	}
	p := in.linkDrop[m]
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	h := hashmix.Mix64(in.plan.Seed ^ hashmix.Golden*uint64(m+1) ^ hashmix.Mix64(n))
	return float64(h>>11)/(1<<53) < p
}

// Fault returns the plan fault at index i (as reported in a Change).
func (in *Injector) Fault(i int) Fault { return in.plan.Faults[i] }
