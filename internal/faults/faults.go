// Package faults models deterministic failure injection for the
// simulated fleet: machine crashes with timed recovery, per-core stalls
// and slowdowns, and shard-link degradation (added routing latency and a
// drop probability).
//
// A Plan is an ordered list of Fault windows with start times and
// durations in simulated seconds, parsed from a compact spec string
// (see Parse). Compile converts the plan to integer cycle
// triggers for one fleet shape; the resulting Injector is advanced in
// lockstep with the fleet clock and answers point queries (is machine m
// down, how slow is core c, what does machine m's link cost right now).
//
// Determinism contract: every trigger is an integer cycle count derived
// once at compile time, the only randomness is SplitMix64 keyed by the
// plan seed and the caller-supplied roll number (never by call order or
// wall clock), and identical (plan, shape, clock) inputs produce
// identical injections.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// FaultKind discriminates the fault types a Plan can carry.
type FaultKind uint8

const (
	// Crash takes a whole machine down: cores stop retiring work,
	// admission refuses and fails over, heartbeats cease. Recovery at
	// the window end restores the machine with its queues aborted.
	Crash FaultKind = iota
	// Stall freezes a core range: threads stay queued but make no
	// progress until the window closes.
	Stall
	// Slow multiplies a core range's cycle cost by Factor.
	Slow
	// Link degrades routing to a machine: every request routed there
	// pays Delay extra seconds and is dropped with probability Drop.
	Link
)

// String names the kind as it appears in the spec grammar.
func (k FaultKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Stall:
		return "stall"
	case Slow:
		return "slow"
	case Link:
		return "link"
	default:
		return "unknown"
	}
}

// StallFactor is the per-core slowdown factor meaning "no progress at
// all"; any budget divided by it is zero cycles of useful work.
const StallFactor = ^uint64(0)

// Limits keep compiled cycle counts inside uint64 at any plausible
// clock rate; Parse and Validate reject plans outside them.
const (
	maxSeconds = 86400.0 // one simulated day
	maxFactor  = 1 << 32
	maxDelay   = 10.0 // seconds of added link latency
)

// Fault is one failure window. Times are simulated seconds from run
// start; For <= 0 means the fault never lifts.
type Fault struct {
	// Kind discriminates the fault.
	Kind FaultKind
	// Machine is the target machine index.
	Machine int
	// Core / CoreHi bound the affected core range, inclusive, for
	// Stall and Slow; Core == -1 means every core.
	Core   int
	CoreHi int
	// Factor is Slow's cycle-cost multiplier (>= 2).
	Factor uint64
	// Delay is Link's added routing latency in seconds.
	Delay float64
	// Drop is Link's drop probability in [0, 1].
	Drop float64
	// At is the window start in seconds.
	At float64
	// For is the window length in seconds; <= 0 keeps the fault
	// active for the rest of the run.
	For float64
}

// Plan is an ordered fault list plus the seed for randomized decisions
// (link drops). The zero value is the empty plan.
type Plan struct {
	Seed   uint64
	Faults []Fault
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Faults) == 0 }

// check validates one fault's shape-independent invariants; both
// parsers and Validate share it.
func check(f Fault) error {
	if f.Machine < 0 {
		return fmt.Errorf("fault %s: negative machine %d", f.Kind, f.Machine)
	}
	if f.At < 0 || f.At > maxSeconds || f.At != f.At {
		return fmt.Errorf("fault %s: start %v out of range [0, %v]", f.Kind, f.At, maxSeconds)
	}
	if f.For > maxSeconds || f.For != f.For {
		return fmt.Errorf("fault %s: duration %v out of range", f.Kind, f.For)
	}
	switch f.Kind {
	case Crash:
	case Stall, Slow:
		if f.Core == -1 && f.CoreHi != -1 || f.Core >= 0 && f.CoreHi < f.Core {
			return fmt.Errorf("fault %s: bad core range c%d-%d", f.Kind, f.Core, f.CoreHi)
		}
		if f.Kind == Slow && (f.Factor < 2 || f.Factor > maxFactor) {
			return fmt.Errorf("fault slow: factor %d out of range [2, %d]", f.Factor, maxFactor)
		}
	case Link:
		if f.Delay < 0 || f.Delay > maxDelay || f.Delay != f.Delay {
			return fmt.Errorf("fault link: delay %v out of range [0, %v]", f.Delay, maxDelay)
		}
		if f.Drop < 0 || f.Drop > 1 || f.Drop != f.Drop {
			return fmt.Errorf("fault link: drop %v out of range [0, 1]", f.Drop)
		}
		if f.Delay == 0 && f.Drop == 0 {
			return fmt.Errorf("fault link: needs a delay or a drop probability")
		}
	default:
		return fmt.Errorf("unknown fault kind %d", f.Kind)
	}
	return nil
}

// Validate checks the plan against a concrete fleet shape.
func (p *Plan) Validate(machines, cores int) error {
	if p == nil {
		return nil
	}
	for i, f := range p.Faults {
		if err := check(f); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
		if f.Machine >= machines {
			return fmt.Errorf("fault %d: machine %d out of range (fleet has %d)", i, f.Machine, machines)
		}
		if (f.Kind == Stall || f.Kind == Slow) && f.Core >= 0 && f.CoreHi >= cores {
			return fmt.Errorf("fault %d: core %d out of range (machine has %d)", i, f.CoreHi, cores)
		}
	}
	return nil
}

// fmtSec renders seconds canonically (shortest float form, "s" unit).
func fmtSec(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64) + "s"
}

// coreSpec renders a fault's core range as it appears in the grammar.
func coreSpec(f Fault) string {
	switch {
	case f.Core < 0:
		return "c*"
	case f.Core == f.CoreHi:
		return "c" + strconv.Itoa(f.Core)
	default:
		return fmt.Sprintf("c%d-%d", f.Core, f.CoreHi)
	}
}

// String renders the plan in the canonical spec grammar; Parse of the
// result reproduces the plan exactly.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, "seed "+strconv.FormatUint(p.Seed, 10))
	}
	for _, f := range p.Faults {
		var b strings.Builder
		fmt.Fprintf(&b, "%s m%d", f.Kind, f.Machine)
		switch f.Kind {
		case Stall:
			b.WriteString(" " + coreSpec(f))
		case Slow:
			fmt.Fprintf(&b, " %s x%d", coreSpec(f), f.Factor)
		case Link:
			if f.Delay > 0 {
				b.WriteString(" +" + fmtSec(f.Delay))
			}
			if f.Drop > 0 {
				b.WriteString(" drop " + strconv.FormatFloat(f.Drop, 'g', -1, 64))
			}
		}
		b.WriteString(" @" + fmtSec(f.At))
		if f.For > 0 {
			b.WriteString(" for " + fmtSec(f.For))
		}
		parts = append(parts, b.String())
	}
	return strings.Join(parts, "; ")
}

// sortTransitions orders compiled windows deterministically: by cycle,
// then plan order, starts before same-fault ends (an end at the same
// cycle as another fault's start sorts by plan position, keeping the
// application order a pure function of the plan).
func sortTransitions(ts []transition) {
	sort.SliceStable(ts, func(i, j int) bool {
		if ts[i].at != ts[j].at {
			return ts[i].at < ts[j].at
		}
		if ts[i].index != ts[j].index {
			return ts[i].index < ts[j].index
		}
		return ts[i].start && !ts[j].start
	})
}
