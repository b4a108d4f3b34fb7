package workload

import (
	"elasticore/internal/db"
	"elasticore/internal/deque"
	"elasticore/internal/metrics"
	"elasticore/internal/obs"
)

// admission.go is the per-machine admission layer shared by the
// single-machine OpenDriver and the cluster Coordinator: a bounded FCFS
// queue of pending requests plus a fixed pool of server sessions on one
// rig's engine. OpenLoop drives one Admission for the open driver and one
// per fleet machine for the coordinator, which routes between them. Every
// state change here is deterministic — FCFS pops, order-preserving session
// compaction, integer-cycle bookkeeping — so a refactored driver stays
// bit-identical to the pre-split one.

// pendingRequest is one queued arrival awaiting a server session.
type pendingRequest struct {
	// at is the arrival cycle (queue-wait accounting baseline).
	at uint64
	// tag is a caller-defined request id threaded through to OnComplete;
	// the cluster coordinator uses it to find the routed parent request.
	tag int64
}

// admFlight tracks one admitted query until completion.
type admFlight struct {
	q          *db.Query
	waitCycles uint64
	tag        int64
}

// Admission is one machine's bounded admission queue plus server-session
// pool. Zero-value fields select the OpenDriver defaults at first use via
// normalize; OpenLoop drives it with Collect (reap completions), the
// caller's Offer (arrival) and Fill (seat queued requests).
type Admission struct {
	// Rig is the machine whose engine executes admitted queries.
	Rig *Rig
	// MaxInFlight is the number of concurrent server sessions; zero
	// selects 64. Arrivals beyond it queue.
	MaxInFlight int
	// QueueCap bounds the admission queue; zero selects 1024. An arrival
	// finding the queue full is dropped (counted, never executed).
	QueueCap int
	// MachineID labels this machine's bus events; zero on single-machine
	// drivers, the fleet index under a cluster coordinator.
	MachineID int32

	// OnComplete, when set, observes each completion after the histograms
	// update: the request's tag, the finished query (still valid — called
	// before Release, so scatter-gather callers can read partial scalars)
	// and the total latency and service cycles.
	OnComplete func(tag int64, q *db.Query, total, service uint64)
	// OnFail, when set, observes each request aborted by FailAll (the
	// machine crashed under it); the coordinator uses it to retry or
	// fail the routed parent. Callers must not re-enter the Admission
	// from inside the callback.
	OnFail func(tag int64)

	// Down marks the machine as crashed: the coordinator stops offering
	// arrivals here until it clears. The flag is bookkeeping only —
	// Offer itself stays untouched so healthy-path behavior is
	// bit-identical with faults compiled out.
	Down bool
	// BrownoutCap, when positive and below QueueCap, temporarily
	// tightens the admission queue (health-monitor load shedding while
	// the fleet rebuilds capacity after a failure).
	BrownoutCap int

	queue   deque.Deque[pendingRequest]
	flights []admFlight
	// zombies are flights whose requester gave up (FailAll aborted
	// them) but whose queries are still executing; their sessions are
	// released silently once the engine finishes them.
	zombies []admFlight

	// Offered counts arrivals presented to Offer; Admitted those seated
	// into a session; Dropped those rejected at a full queue; Completed
	// those whose query finished; Failed those aborted by FailAll.
	// Offered - Admitted - Dropped requests are still queued.
	Offered, Admitted, Dropped, Completed, Failed int
	// PeakQueueDepth and PeakInFlight are maxima over UpdatePeaks calls.
	PeakQueueDepth, PeakInFlight int
	// QueueWait, Service and Latency accumulate per-query cycles.
	QueueWait, Service, Latency metrics.Histogram
}

// normalize applies the zero-value defaults.
func (a *Admission) normalize() {
	if a.MaxInFlight <= 0 {
		a.MaxInFlight = 64
	}
	if a.QueueCap <= 0 {
		a.QueueCap = 1024
	}
	if a.flights == nil {
		a.flights = make([]admFlight, 0, a.MaxInFlight)
	}
}

// QueueLen is the instantaneous admission-queue depth (the elastic
// mechanism's backlog signal).
func (a *Admission) QueueLen() int { return a.queue.Len() }

// InFlight is the number of occupied server sessions.
func (a *Admission) InFlight() int { return len(a.flights) }

// Idle reports whether nothing is queued or executing. Zombie flights
// don't count: their requesters already saw a failure, so no caller is
// waiting on them.
func (a *Admission) Idle() bool { return a.queue.Len() == 0 && len(a.flights) == 0 }

// Drained reports whether Collect and Fill have nothing left to do at
// all: Idle, and no zombie flight still waiting for its session to be
// released. A driver may skip its per-quantum pass over a drained
// admission until the next Offer.
func (a *Admission) Drained() bool { return a.Idle() && len(a.zombies) == 0 }

// FailAll aborts every queued and in-flight request (the machine under
// this admission crashed): queued requests are dropped outright,
// in-flight queries become zombies reaped silently by later Collect
// calls, and OnFail fires per aborted tag in deterministic order
// (queue FCFS, then flight seating order).
func (a *Admission) FailAll() {
	for a.queue.Len() > 0 {
		req, _ := a.queue.PopFront()
		a.Failed++
		if a.OnFail != nil {
			a.OnFail(req.tag)
		}
	}
	for _, f := range a.flights {
		a.zombies = append(a.zombies, f)
		a.Failed++
		if a.OnFail != nil {
			a.OnFail(f.tag)
		}
	}
	a.flights = a.flights[:0]
}

// Collect reaps finished queries, freeing their sessions and recording
// latency. Order-preserving compaction keeps the release order (and thus
// engine buffer reuse) deterministic.
func (a *Admission) Collect(nowC uint64) {
	bus := a.Rig.Bus
	kept := a.flights[:0]
	for _, f := range a.flights {
		if !f.q.Done() {
			kept = append(kept, f)
			continue
		}
		service := f.q.ElapsedCycles()
		total := f.waitCycles + service
		a.QueueWait.Record(f.waitCycles)
		a.Service.Record(service)
		a.Latency.Record(total)
		a.Completed++
		if bus != nil {
			bus.Publish(obs.Event{
				Kind:    obs.KindQueryDone,
				Now:     nowC,
				Core:    -1,
				Dur:     total,
				V1:      int64(service),
				Machine: a.MachineID,
			})
		}
		if a.OnComplete != nil {
			a.OnComplete(f.tag, f.q, total, service)
		}
		a.Rig.Engine.Release(f.q)
	}
	a.flights = kept
	if len(a.zombies) > 0 {
		zkept := a.zombies[:0]
		for _, f := range a.zombies {
			if !f.q.Done() {
				zkept = append(zkept, f)
				continue
			}
			// The requester already counted this a failure: no
			// histograms, no events — just recycle the session.
			a.Rig.Engine.Release(f.q)
		}
		a.zombies = zkept
	}
}

// Full reports whether Offer would shed an arrival right now: the queue
// is at QueueCap, or at a tighter live BrownoutCap. A caller that must
// seat several requests or none (a scatter) asks every machine first.
func (a *Admission) Full() bool {
	a.normalize()
	qcap := a.QueueCap
	if a.BrownoutCap > 0 && a.BrownoutCap < qcap {
		qcap = a.BrownoutCap
	}
	return a.queue.Len() >= qcap
}

// Offer presents one arrival (arrival cycle at, caller tag) against the
// instantaneous queue depth, reporting whether it was queued or dropped.
func (a *Admission) Offer(nowC, at uint64, tag int64) bool {
	a.Offered++
	if a.Full() {
		a.Dropped++
		if bus := a.Rig.Bus; bus != nil {
			bus.Publish(obs.Event{
				Kind:    obs.KindShed,
				Now:     nowC,
				Core:    -1,
				V1:      int64(a.queue.Len()),
				Machine: a.MachineID,
			})
		}
		return false
	}
	a.queue.PushBack(pendingRequest{at: at, tag: tag})
	return true
}

// Fill seats queued requests into free server sessions FCFS. plan builds
// the k-th admitted query of this machine (0-based) from its tag.
func (a *Admission) Fill(nowC uint64, plan func(k int, tag int64) *db.Plan) {
	a.normalize()
	if a.Down {
		return // a crashed machine seats nothing until recovery
	}
	for len(a.flights) < a.MaxInFlight && a.queue.Len() > 0 {
		req, _ := a.queue.PopFront()
		p := plan(a.Admitted, req.tag)
		a.Admitted++
		q := a.Rig.Engine.Submit(p)
		a.flights = append(a.flights, admFlight{q: q, waitCycles: nowC - req.at, tag: req.tag})
		if bus := a.Rig.Bus; bus != nil {
			bus.Publish(obs.Event{
				Kind:    obs.KindAdmit,
				Now:     nowC,
				Core:    -1,
				Dur:     nowC - req.at,
				V1:      int64(a.queue.Len()),
				V2:      int64(len(a.flights)),
				Machine: a.MachineID,
			})
		}
	}
}

// UpdatePeaks folds the instantaneous depths into the phase maxima.
func (a *Admission) UpdatePeaks() {
	if a.queue.Len() > a.PeakQueueDepth {
		a.PeakQueueDepth = a.queue.Len()
	}
	if len(a.flights) > a.PeakInFlight {
		a.PeakInFlight = len(a.flights)
	}
}
