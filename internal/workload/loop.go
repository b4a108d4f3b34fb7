package workload

import (
	"elasticore/internal/arrivals"
	"elasticore/internal/db"
	"elasticore/internal/numa"
)

// loop.go is the one open traffic loop. The single-machine OpenDriver and
// the cluster Coordinator replay an arrival process against admission
// layers through OpenLoop.Run and plug in only their own steps. Every due
// time of the loop is an integer cycle on the quantum grid — arrivals (the
// pump's rule), the deadline and a caller's boundaries (through
// gridCycle) — so it compares no float seconds.

// defaultMaxSeconds bounds a phase that sets no MaxSeconds, closed or open.
const defaultMaxSeconds = 600

// Timers is a caller's scheduled work around each pass's arrivals: the
// cluster coordinator's timeouts, hedges, retries and link delays.
type Timers interface {
	// Before runs after completions are collected and before arrivals are
	// offered; After runs after the arrivals and before sessions fill.
	Before(nowC uint64)
	After(nowC uint64)
	// NextAt is the earliest cycle at which Before or After finds work,
	// the maximum uint64 when nothing is scheduled.
	NextAt() uint64
	// Quiet reports whether no timer work is pending.
	Quiet() bool
}

// OpenLoop replays an arrival process against the admission layers of
// machines that advance in lockstep.
type OpenLoop struct {
	// Admissions are the machines' admission layers; the first one's rig
	// supplies the clock, the quantum and the topology.
	Admissions []*Admission
	// Process, MaxArrivals and MaxSeconds bound the stream as OpenDriver's
	// fields of the same names do.
	Process     arrivals.Process
	MaxArrivals int
	MaxSeconds  float64
	// Timers, when set, runs the caller's scheduled work.
	Timers Timers
}

// Run drives the loop to its end. Each pass collects completions, runs
// the timers, offers the due arrivals (offer), fills free sessions FCFS
// (plan builds each admitted query, as Admission.Fill's argument) and,
// when observe is set, lets it look at the admissions; observe returns the
// next cycle at which it must look again. The loop stops once the stream
// is exhausted, every admission is idle and the timers are quiet, or at
// the deadline. While every admission is drained it jumps to the first
// quantum at or after the next arrival, timer, observer boundary or
// deadline: advance runs that many quanta of every machine, and still
// stops wherever a machine has something due (control, probe, fault edge).
// The steps are arguments, not fields, so that a caller's closures need
// not escape to the heap.
func (l *OpenLoop) Run(offer func(nowC, at uint64), plan func(k int, tag int64) *db.Plan, observe func(nowC uint64) uint64, advance func(n int)) {
	rig := l.Admissions[0].Rig
	topo, quantum, start := rig.Machine.Topology(), rig.Sched.Quantum(), rig.Machine.Now()
	deadline := phaseEnd(topo, start, quantum, l.MaxSeconds)
	pump := newArrivalPump(l.Process, topo, start, l.MaxArrivals)
	for {
		nowC := rig.Machine.Now()
		for _, adm := range l.Admissions {
			adm.Collect(nowC)
		}
		if l.Timers != nil {
			l.Timers.Before(nowC)
		}
		pump.Due(nowC, offer)
		if l.Timers != nil {
			l.Timers.After(nowC)
		}
		idle, drained := true, true
		for _, adm := range l.Admissions {
			adm.Fill(nowC, plan)
			adm.UpdatePeaks()
			idle = idle && adm.Idle()
			drained = drained && adm.Drained()
		}
		next := deadline
		if observe != nil {
			next = min(next, observe(nowC))
		}
		if !pump.More() && idle && (l.Timers == nil || l.Timers.Quiet()) || nowC >= deadline {
			return
		}
		n := 1
		if drained {
			if l.Timers != nil {
				next = min(next, l.Timers.NextAt())
			}
			n = QuantaUntil(nowC, min(pump.NextAt(), next), quantum, 1<<30)
		}
		advance(n)
	}
}

// phaseEnd is the quantum edge at which a phase that started at cycle
// start has run maxSeconds (default 600): the first grid cycle whose time
// is at or past start's plus maxSeconds.
func phaseEnd(topo *numa.Topology, start, quantum uint64, maxSeconds float64) uint64 {
	if maxSeconds == 0 {
		maxSeconds = defaultMaxSeconds
	}
	deadline := topo.CyclesToSeconds(start) + maxSeconds
	return gridCycle(start, quantum, func(c uint64) bool { return topo.CyclesToSeconds(c) >= deadline })
}

// gridCycle returns the first cycle of the quantum grid start,
// start+quantum, ... at which fires holds (the maximum uint64 when none in
// the clock's range does), by binary search: fires must be monotone in the
// cycle. Loops pass their float-seconds tests — deadline, sample boundary;
// CyclesToSeconds is monotone — and so decide them in integer cycles, at
// exactly the quantum a per-quantum float comparison picks.
func gridCycle(start, quantum uint64, fires func(cycle uint64) bool) uint64 {
	lo, hi := uint64(0), (^uint64(0)-start)/quantum // grid steps; the answer is in [lo, hi] or absent
	if !fires(start + hi*quantum) {
		return ^uint64(0)
	}
	for lo < hi {
		if mid := lo + (hi-lo)/2; fires(start + mid*quantum) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return start + lo*quantum
}

// arrivalPump replays one arrival process from a start cycle: it turns
// the process's seconds into arrival cycles and hands each one on once the
// clock has reached it. It always holds the next arrival primed, which is
// what lets the loop ask when the next one is (NextAt) and jump there.
type arrivalPump struct {
	proc    arrivals.Process
	topo    *numa.Topology
	start   uint64
	max     int
	offered int
	nextAt  uint64
	more    bool
}

// newArrivalPump primes the first arrival of proc, whose times count from
// cycle start. A nil process offers nothing; maxArrivals, when positive,
// ends the stream after that many offers.
func newArrivalPump(proc arrivals.Process, topo *numa.Topology, start uint64, maxArrivals int) arrivalPump {
	p := arrivalPump{proc: proc, topo: topo, start: start, max: maxArrivals, more: proc != nil}
	if p.more {
		p.prime()
	}
	return p
}

func (p *arrivalPump) prime() {
	t, ok := p.proc.Next()
	p.nextAt, p.more = p.start+p.topo.SecondsToCycles(t), ok
}

// Due offers, in timestamp order, every arrival whose cycle is at or
// before nowC. The process is asked for the arrival after the last one
// only when the arrival cap has not been reached, so a capped stream
// draws nothing it will not offer.
func (p *arrivalPump) Due(nowC uint64, offer func(nowC, at uint64)) {
	for p.more && p.nextAt <= nowC {
		offer(nowC, p.nextAt)
		p.offered++
		if p.max > 0 && p.offered >= p.max {
			p.more = false
			return
		}
		p.prime()
	}
}

// More reports whether the stream still has an arrival to offer.
func (p *arrivalPump) More() bool { return p.more }

// NextAt returns the cycle of the next arrival, or the maximum uint64
// once the stream is exhausted.
func (p *arrivalPump) NextAt() uint64 {
	if !p.more {
		return ^uint64(0)
	}
	return p.nextAt
}
