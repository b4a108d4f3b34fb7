// Package arrivals provides deterministic, seeded arrival processes for
// open-loop workload generation.
//
// The paper's execution protocol (and workload.Driver) is closed-loop:
// each client submits its next query only when the previous one
// completes, so the offered load can never exceed the service capacity
// and the system never queues. Real traffic is open-loop — requests
// arrive from independent users regardless of how the server is doing —
// which is the only regime where backlog, overload and tail latency
// exist. A Process generates such an arrival stream as a monotone
// sequence of timestamps; workload.OpenDriver replays it against a rig.
//
// Every process is driven by its own SplitMix64 stream (internal/hashmix
// finalizer), so the same (parameters, seed) pair yields a bit-identical
// arrival sequence on every run and platform.
package arrivals

import (
	"fmt"
	"math"

	"elasticore/internal/hashmix"
)

// Process generates one arrival stream. Next returns the absolute time
// of the next arrival in seconds from the stream's origin; times are
// non-decreasing. ok is false once the stream is exhausted (stochastic
// processes are unbounded and never exhaust; drivers bound them by
// arrival count or horizon).
type Process interface {
	// Next returns the next arrival time in seconds, or ok=false at the
	// end of a finite stream.
	Next() (t float64, ok bool)
}

// rng wraps the shared SplitMix64 stream (hashmix.Stream) with the
// continuous draws the processes need. It is the package's only
// randomness source, keeping arrival streams reproducible bit for bit.
type rng struct{ hashmix.Stream }

// newRNG scrambles the user seed so adjacent seeds yield uncorrelated
// streams.
func newRNG(seed uint64) rng {
	return rng{hashmix.Stream{State: hashmix.Mix64(seed ^ 0xA5A5A5A5DEADBEEF)}}
}

// uniform returns a float in (0, 1): 53 random mantissa bits offset by
// half an ulp so the endpoints are never produced (safe under math.Log).
func (r *rng) uniform() float64 {
	return (float64(r.Next()>>11) + 0.5) / (1 << 53)
}

// exp draws an exponential gap with the given rate (mean 1/rate).
func (r *rng) exp(rate float64) float64 {
	return -math.Log(r.uniform()) / rate
}

// Poisson is a homogeneous Poisson process: independent exponential
// inter-arrival gaps at a constant rate (arrivals per second).
type Poisson struct {
	rate float64
	t    float64
	r    rng
}

// NewPoisson builds a Poisson process with the given rate (> 0).
func NewPoisson(rate float64, seed uint64) *Poisson {
	if rate <= 0 {
		panic(fmt.Sprintf("arrivals: poisson rate %g must be positive", rate))
	}
	return &Poisson{rate: rate, r: newRNG(seed)}
}

// Next implements Process.
func (p *Poisson) Next() (float64, bool) {
	p.t += p.r.exp(p.rate)
	return p.t, true
}

// MMPP is a two-state Markov-modulated Poisson process: the arrival rate
// alternates between a base and a burst level, dwelling in each state for
// an exponentially distributed time. It is the canonical bursty-traffic
// model: long quiet stretches punctuated by overload episodes whose onset
// an elastic mechanism must react to.
type MMPP struct {
	rates    [2]float64 // [base, burst] arrivals per second
	dwell    [2]float64 // mean dwell seconds per state
	state    int
	t        float64
	stateEnd float64
	r        rng
}

// NewMMPP builds the two-state process. All rates and mean dwell times
// must be positive; the process starts in the base state.
func NewMMPP(baseRate, burstRate, baseDwell, burstDwell float64, seed uint64) *MMPP {
	if baseRate <= 0 || burstRate <= 0 {
		panic(fmt.Sprintf("arrivals: mmpp rates (%g, %g) must be positive", baseRate, burstRate))
	}
	if baseDwell <= 0 || burstDwell <= 0 {
		panic(fmt.Sprintf("arrivals: mmpp dwell times (%g, %g) must be positive", baseDwell, burstDwell))
	}
	m := &MMPP{
		rates: [2]float64{baseRate, burstRate},
		dwell: [2]float64{baseDwell, burstDwell},
		r:     newRNG(seed),
	}
	m.stateEnd = m.r.exp(1 / m.dwell[0])
	return m
}

// Next implements Process. Exponential gaps are memoryless, so crossing a
// state boundary simply redraws the gap at the new state's rate from the
// boundary.
func (m *MMPP) Next() (float64, bool) {
	for {
		gap := m.r.exp(m.rates[m.state])
		if m.t+gap <= m.stateEnd {
			m.t += gap
			return m.t, true
		}
		m.t = m.stateEnd
		m.state ^= 1
		m.stateEnd = m.t + m.r.exp(1/m.dwell[m.state])
	}
}

// Diurnal is a non-homogeneous Poisson process whose rate follows a
// sinusoidal day/night ramp: rate(t) = base * (1 + amp*sin(2πt/period)).
// Arrivals are generated by thinning against the peak rate, which keeps
// the stream exact and deterministic.
type Diurnal struct {
	base, amp, period float64
	t                 float64
	r                 rng
}

// NewDiurnal builds the ramp process. base and period must be positive;
// amp must lie in [0, 1) so the instantaneous rate never reaches zero.
func NewDiurnal(base, amp, period float64, seed uint64) *Diurnal {
	if base <= 0 || period <= 0 {
		panic(fmt.Sprintf("arrivals: diurnal base %g and period %g must be positive", base, period))
	}
	if amp < 0 || amp >= 1 {
		panic(fmt.Sprintf("arrivals: diurnal amplitude %g outside [0, 1)", amp))
	}
	return &Diurnal{base: base, amp: amp, period: period, r: newRNG(seed)}
}

// RateAt returns the instantaneous rate at time t.
func (d *Diurnal) RateAt(t float64) float64 {
	return d.base * (1 + d.amp*math.Sin(2*math.Pi*t/d.period))
}

// Next implements Process.
func (d *Diurnal) Next() (float64, bool) {
	peak := d.base * (1 + d.amp)
	for {
		d.t += d.r.exp(peak)
		if d.r.uniform()*peak <= d.RateAt(d.t) {
			return d.t, true
		}
	}
}
