package workload

import (
	"elasticore/internal/arrivals"
	"elasticore/internal/numa"
)

// pump.go is the arrival replay shared by the single-machine OpenDriver
// and the cluster Coordinator: it turns an arrivals.Process (seconds
// from the phase start) into arrival cycles and hands each one to the
// driver once the clock has reached it. Due-ness is decided in integer
// cycles, never by comparing float seconds, so it cannot depend on
// rounding.

// ArrivalPump replays one arrival process from a start cycle. It always
// holds the next arrival primed, which is what lets a driver ask when
// the next one is (NextAt) and jump there.
type ArrivalPump struct {
	proc    arrivals.Process
	topo    *numa.Topology
	start   uint64
	max     int
	offered int
	nextAt  uint64
	more    bool
}

// NewArrivalPump primes the first arrival of proc, whose times count
// from cycle start. A nil process offers nothing; maxArrivals, when
// positive, ends the stream after that many offers.
func NewArrivalPump(proc arrivals.Process, topo *numa.Topology, start uint64, maxArrivals int) ArrivalPump {
	p := ArrivalPump{proc: proc, topo: topo, start: start, max: maxArrivals, more: proc != nil}
	if p.more {
		p.prime()
	}
	return p
}

func (p *ArrivalPump) prime() {
	t, ok := p.proc.Next()
	p.nextAt, p.more = p.start+p.topo.SecondsToCycles(t), ok
}

// Due offers, in timestamp order, every arrival whose cycle is at or
// before nowC. The process is asked for the arrival after the last one
// only when the arrival cap has not been reached, so a capped stream
// draws nothing it will not offer.
func (p *ArrivalPump) Due(nowC uint64, offer func(nowC, at uint64)) {
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
func (p *ArrivalPump) More() bool { return p.more }

// NextAt returns the cycle of the next arrival, or the maximum uint64
// once the stream is exhausted.
func (p *ArrivalPump) NextAt() uint64 {
	if !p.more {
		return ^uint64(0)
	}
	return p.nextAt
}
