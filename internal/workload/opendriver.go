package workload

import (
	"elasticore/internal/arrivals"
	"elasticore/internal/db"
	"elasticore/internal/metrics"
	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// opendriver.go is the open-loop counterpart of Driver: queries arrive
// from an arrivals.Process on their own schedule, wait in a bounded
// admission queue, and occupy one of a fixed number of server sessions
// while executing. Unlike the closed-loop protocol, the offered load is
// independent of the service rate, so backlog, overload and tail latency
// become observable — and the admission-queue depth is fed to the rig's
// elastic mechanism as a pressure signal.

// PlanAt supplies the k-th admitted query (0-based, admission order).
type PlanAt func(k int) *db.Plan

// OpenDriver replays an arrival process against a rig.
type OpenDriver struct {
	Rig *Rig
	// Process generates the arrival timestamps, relative to the phase
	// start. A nil process offers nothing.
	Process arrivals.Process
	// MaxInFlight is the number of concurrent server sessions (queries
	// executing at once); zero selects 64. Arrivals beyond it queue.
	MaxInFlight int
	// QueueCap bounds the admission queue; zero selects 1024. An arrival
	// finding the queue full is dropped (counted, never executed).
	QueueCap int
	// MaxArrivals stops offering after this many arrivals; zero offers
	// until MaxSeconds.
	MaxArrivals int
	// MaxSeconds bounds the phase in virtual time (default 600). Queries
	// still queued or in flight at the deadline are abandoned.
	MaxSeconds float64
	// SampleEvery, when positive, records timeline samples at this
	// virtual-time interval in seconds.
	SampleEvery float64
	// DisableBacklog leaves the mechanism's queue-pressure input unwired,
	// so allocation reacts only to the counter path (A/B baselines).
	DisableBacklog bool

	// winLatency accumulates per-sample-window completions (reset each
	// sample) and adm is the running phase's admission layer; both are
	// kept on the driver so Run does not allocate them.
	winLatency metrics.Histogram
	adm        Admission
}

// OpenSample is one timeline point of an open-loop phase.
type OpenSample struct {
	AtSeconds float64
	// QueueDepth and InFlight are instantaneous at the sample.
	QueueDepth, InFlight int
	// Allocated is the DBMS core count at the sample.
	Allocated int
	// Completed counts queries finished within this sample window.
	Completed int
	// P99Cycles is the 99th-percentile total latency (queue wait plus
	// service) of this window's completions, in cycles; zero when none.
	P99Cycles uint64
}

// OpenResult summarizes one open-loop phase. All histograms are in
// simulated cycles; convert with Topology.CyclesToSeconds.
type OpenResult struct {
	// ElapsedSeconds is the virtual wall time of the phase.
	ElapsedSeconds float64
	// Offered counts arrivals generated; Admitted those submitted to the
	// engine; Dropped those rejected at a full queue; Abandoned those
	// still waiting in the admission queue when the phase hit its
	// deadline; Completed those that finished before the deadline.
	// Offered = Admitted + Dropped + Abandoned, and Admitted - Completed
	// queries were cut off mid-execution.
	Offered, Admitted, Dropped, Abandoned, Completed int
	// Throughput is completions per virtual second.
	Throughput float64
	// QueueWait is time spent in the admission queue, Service the
	// engine execution time, Latency their sum per query.
	QueueWait, Service, Latency metrics.Histogram
	// PeakQueueDepth and PeakInFlight are phase maxima.
	PeakQueueDepth, PeakInFlight int
	// Window is the counter delta over the phase.
	Window numa.Counters
	// Sched is the scheduler stats delta over the phase.
	Sched sched.Stats
	// Samples are periodic timeline points; empty unless SampleEvery was
	// set.
	Samples []OpenSample
}

// Run replays the arrival process to completion (or the deadline) and
// returns the phase summary. Arrivals are admitted in timestamp order;
// admission to a server session is FCFS. Run is the one-admission
// OpenLoop: it contributes only the phase's wiring, its timeline samples
// and its summary.
func (d *OpenDriver) Run(plan PlanAt) OpenResult {
	r := d.Rig
	topo := r.Machine.Topology()

	var res OpenResult
	d.adm = Admission{Rig: r, MaxInFlight: d.MaxInFlight, QueueCap: d.QueueCap}
	adm := &d.adm

	d.winLatency.Reset()
	winCompleted := 0
	adm.OnComplete = func(_ int64, _ *db.Query, total, _ uint64) {
		d.winLatency.Record(total)
		winCompleted++
	}

	if r.Mech != nil && !d.DisableBacklog {
		r.Mech.SetBacklog(adm.QueueLen)
		defer r.Mech.SetBacklog(nil)
	}
	if r.Probe != nil {
		// Timeline samples during this phase carry the queue depth and
		// the phase's cumulative latency quantiles.
		r.Probe.SetLatency(&adm.Latency)
		defer r.Probe.SetLatency(nil)
	}

	startSnap := r.Machine.Snapshot()
	startStats := r.Sched.Stats()
	startCycle := r.Machine.Now()
	startTime := r.Machine.NowSeconds()
	quantum := r.Sched.Quantum()

	// The sample boundary is a grid cycle like the loop's deadline, and
	// the loop never jumps past it.
	lastSample := startTime
	sampleDue := func(c uint64) bool { return d.SampleEvery > 0 && topo.CyclesToSeconds(c)-lastSample >= d.SampleEvery }
	sampleC := gridCycle(startCycle, quantum, sampleDue)
	sample := func(nowC uint64) uint64 {
		if nowC >= sampleC {
			now := topo.CyclesToSeconds(nowC)
			res.Samples = append(res.Samples, OpenSample{
				AtSeconds:  now - startTime,
				QueueDepth: adm.QueueLen(),
				InFlight:   adm.InFlight(),
				Allocated:  r.AllocatedCores(),
				Completed:  winCompleted,
				P99Cycles:  d.winLatency.P99(),
			})
			d.winLatency.Reset()
			winCompleted = 0
			lastSample = now
			sampleC = gridCycle(nowC, quantum, sampleDue)
		}
		return sampleC
	}
	loop := OpenLoop{Admissions: []*Admission{adm}, Process: d.Process, MaxArrivals: d.MaxArrivals, MaxSeconds: d.MaxSeconds}
	loop.Run(
		func(nowC, at uint64) { adm.Offer(nowC, at, 0) },
		func(k int, _ int64) *db.Plan { return plan(k) },
		sample, r.Advance)

	endSnap := r.Machine.Snapshot()
	res.Offered = adm.Offered
	res.Admitted = adm.Admitted
	res.Dropped = adm.Dropped
	res.Completed = adm.Completed
	res.Abandoned = adm.QueueLen()
	res.QueueWait = adm.QueueWait
	res.Service = adm.Service
	res.Latency = adm.Latency
	res.PeakQueueDepth = adm.PeakQueueDepth
	res.PeakInFlight = adm.PeakInFlight
	res.ElapsedSeconds = r.Machine.NowSeconds() - startTime
	res.Window = endSnap.Sub(startSnap)
	res.Sched = schedDelta(startStats, r.Sched.Stats())
	if res.ElapsedSeconds > 0 {
		res.Throughput = float64(res.Completed) / res.ElapsedSeconds
	}
	r.Engine.Drain()
	return res
}

// RunSameQuery replays the process with every admitted query running the
// same plan builder under an admission-derived seed (the open-loop
// analogue of Driver.RunSameQuery).
func (d *OpenDriver) RunSameQuery(build func(seed uint64) *db.Plan) OpenResult {
	return d.Run(func(k int) *db.Plan { return build(uint64(k + 1)) })
}
