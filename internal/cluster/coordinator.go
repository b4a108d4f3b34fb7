package cluster

import (
	"elasticore/internal/arrivals"
	"elasticore/internal/db"
	"elasticore/internal/metrics"
	"elasticore/internal/obs"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// coordinator.go is the fleet's front door: the open-loop driver
// generalized from one machine to N. Requests arrive from an arrival
// process, are routed — keyed requests to their shard's owner, unkeyed
// ones by a load-balance policy, every ScatterEvery-th as a
// scatter-gather fan-out over all machines — and each machine runs its
// own workload.Admission (the same bounded-queue/session layer the
// single-machine OpenDriver uses). Partial results of a scatter merge
// by scalar addition; the parent request completes when its last
// sub-query does.
//
// Every request walks the same machine, whatever is configured; the
// methods of run are its transitions:
//
//	offered ─offer─> routed ─route, send─> attempt ─complete─> completed
//	                   ^  │ no healthy target     │ shed, crash (lost), timeout (expire)
//	                   │  v                       v
//	                   │  retry: budget left ─> retry-scheduled; none ─> dropped | failed
//	                   └─────── backoff elapsed (drainRetries) ──┘
//	attempt ─hedge point (expire)─> hedged: one duplicate attempt, first completion wins
//	unresolved at the deadline ─> abandoned
//
// Timeouts, hedges, link faults and crashes are events that never occur
// on a fleet without them, not a second code path.

// Policy selects how unkeyed requests pick a machine.
type Policy int

const (
	// BalanceShortestQueue routes to the machine with the fewest queued
	// requests (ties: fewer in flight, then lowest index).
	BalanceShortestQueue Policy = iota
	// BalanceWeighted routes to the machine with the lowest queue depth
	// per allocated core, so a machine the arbiter grew absorbs
	// proportionally more traffic (ties: lowest index).
	BalanceWeighted
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == BalanceWeighted {
		return "weighted"
	}
	return "shortest-queue"
}

// The routing kinds, as KindRoute events label them.
const (
	labelKeyed   = "keyed"
	labelAny     = "any"
	labelScatter = "scatter"
)

// parentReq tracks one offered request until it resolves.
type parentReq struct {
	at      uint64 // arrival cycle
	pending int    // sub-queries still to complete (a scatter has one per machine)
	merged  float64
	label   string
	// shard is the routing key's shard, which a resend routes again; -1
	// for unkeyed and scatter requests.
	shard int
	// done marks the request resolved (completed, dropped or failed):
	// later completions of its attempts are ignored.
	done   bool
	hedged bool // its one hedge is spent
	tries  int  // routed sends consumed; a hedge is free
}

// attempt is one send of a parent request to one machine — first try,
// retry, hedge or scatter sub-query. The admission tag indexes this
// table, so several attempts of one parent stay distinguishable.
type attempt struct {
	parent   int64
	machine  int
	sent     uint64
	deadline uint64 // 0 = no timeout
	hedge    bool
	done     bool
}

// retryEntry is one scheduled resend, due after its backoff elapses.
type retryEntry struct {
	parent int64
	due    uint64
}

// wireMsg is one attempt in flight on a degraded link, delivered to its
// machine's admission queue only after the link's added delay.
type wireMsg struct {
	deliver uint64
	tag     int64
}

// outcome is a request's terminal state short of the deadline.
type outcome int

const (
	completed outcome = iota
	dropped
	failed
)

// run is the state of one Coordinator.Run: the request and attempt
// tables, the timer lists the fault-tolerance events live on, and the
// result under construction.
type run struct {
	c    Coordinator
	f    *Fleet
	bus  *obs.Bus
	adms []*workload.Admission
	res  Result

	// Timer settings in cycles (0: never fires) and the resends a request
	// may consume after its first send.
	timeoutC, hedgeC, backoffC uint64
	budget                     int

	reqs     []parentReq
	attempts []attempt
	// outstanding lists the attempts a timer can still act on: those
	// with a deadline or a hedge to fire. A run without timers keeps it
	// empty and scans nothing per quantum.
	outstanding []int64
	retryQ      []retryEntry
	wire        []wireMsg
	dropN       []uint64 // per-machine link-drop roll counters
	buf         []int
	// dueBuf and hedges stage work found while compacting retryQ and
	// outstanding, so acting on it (which appends to those same slices)
	// never aliases an in-progress scan.
	dueBuf, hedges []int64
}

// newRun builds the per-run state and registers one admission layer per
// machine with the fleet; close undoes the registration. The run holds a
// copy of the caller's Coordinator with its defaults resolved, so Run
// leaves the caller's as it was.
func newRun(caller *Coordinator) *run {
	c := *caller
	if c.Build == nil {
		c.Build = func(id uint64) *db.Plan { return tpch.BuildQ6(id + 1) }
	}
	if c.MergeScalar == "" {
		c.MergeScalar = "result"
	}
	if c.BackoffSeconds == 0 {
		c.BackoffSeconds = 5e-3
	}
	f := c.Fleet
	topo := f.Rigs[0].Machine.Topology()
	r := &run{
		c: c, f: f, bus: f.Bus,
		adms:     make([]*workload.Admission, len(f.Rigs)),
		timeoutC: topo.SecondsToCycles(c.TimeoutSeconds),
		hedgeC:   topo.SecondsToCycles(c.HedgeAfterSeconds),
		backoffC: topo.SecondsToCycles(c.BackoffSeconds),
		budget:   c.MaxRetries,
		dropN:    make([]uint64, len(f.Rigs)),
	}
	// The only place that asks whether fault tolerance is configured: it
	// picks the default budget and nothing else.
	if r.budget == 0 && (c.TimeoutSeconds > 0 || c.HedgeAfterSeconds > 0 || f.Injector() != nil) {
		r.budget = 3
	}
	r.res.PerMachine = make([]MachineStats, len(f.Rigs))
	for m, rig := range f.Rigs {
		adm := &workload.Admission{
			Rig:         rig,
			MaxInFlight: c.MaxInFlight,
			QueueCap:    c.QueueCap,
			MachineID:   int32(m),
			OnComplete:  r.complete,
			OnFail:      r.crashed,
		}
		r.adms[m] = adm
		f.RegisterAdmission(m, adm)
		if rig.Mech != nil {
			rig.Mech.SetBacklog(adm.QueueLen)
		}
	}
	return r
}

func (r *run) close() {
	for m, rig := range r.f.Rigs {
		r.f.RegisterAdmission(m, nil)
		if rig.Mech != nil {
			rig.Mech.SetBacklog(nil)
		}
	}
}

// plan builds an admitted (sub-)query from its attempt's parent id.
func (r *run) plan(_ int, tag int64) *db.Plan {
	return r.c.Build(uint64(r.attempts[tag].parent))
}

// healthy reports whether machine m can take traffic right now: its
// admission connections are up (a crash resets them, so this is local
// knowledge, not an oracle) and the health monitor does not believe it
// dead.
func (r *run) healthy(m int) bool {
	if r.adms[m].Down {
		return false
	}
	h := r.f.Health()
	return h == nil || !h.Dead(m)
}

// lighter reports whether the balance policy prefers machine m to b.
func (r *run) lighter(m, b int) bool {
	am, ab := r.adms[m], r.adms[b]
	if r.c.Policy == BalanceWeighted {
		// Lowest queue depth per allocated core: compare q_m/w_m with
		// q_b/w_b by cross-multiplication to stay in integers.
		return (am.QueueLen()+am.InFlight())*r.f.Rigs[b].AllocatedCores() <
			(ab.QueueLen()+ab.InFlight())*r.f.Rigs[m].AllocatedCores()
	}
	return am.QueueLen() < ab.QueueLen() ||
		(am.QueueLen() == ab.QueueLen() && am.InFlight() < ab.InFlight())
}

// pick returns the balance policy's machine for an unkeyed request, first
// send or resend, among the healthy machines; -1 when there is none.
func (r *run) pick() int {
	best := -1
	for m := range r.adms {
		if r.healthy(m) && (best < 0 || r.lighter(m, best)) {
			best = m
		}
	}
	return best
}

// offer is offered → routed: it classifies the request arriving at
// cycle at, counts it under its routing kind and sends it on its way. A
// scatter that cannot seat every sub-query is dropped whole here — a
// partial fan-out would merge a partial result — and consumes no id.
func (r *run) offer(nowC, at uint64) {
	k := r.res.Offered
	r.res.Offered++
	p := parentReq{at: at, pending: 1, label: labelAny, shard: -1}
	switch {
	case r.c.ScatterEvery > 0 && (k+1)%r.c.ScatterEvery == 0:
		p.label, p.pending = labelScatter, len(r.adms)
		r.res.Scattered++
		for _, adm := range r.adms {
			if adm.Full() || adm.Down {
				r.resolve(nowC, &p, dropped)
				return
			}
		}
	case r.c.Keys != nil:
		p.label, p.shard = labelKeyed, r.f.Sharder.Shard(r.c.Keys(k))
		r.res.RoutedKeyed++
	default:
		r.res.RoutedBalanced++
	}
	id := int64(len(r.reqs))
	r.reqs = append(r.reqs, p)
	if p.label != labelScatter {
		r.route(nowC, id)
		return
	}
	// Sub-queries have no timeout, hedge or link model: a crash fails
	// the parent fast instead (see lost).
	for m := range r.adms {
		r.attempts = append(r.attempts, attempt{parent: id, machine: m, sent: nowC})
		r.deliver(nowC, int64(len(r.attempts)-1))
	}
}

// route is routed → attempt for a first send or a resend: a keyed
// request goes to the first healthy machine in its shard's owner
// preference order (a failover when that is not the primary), an unkeyed
// one to the balance policy's pick; with nowhere to go it waits out a
// backoff.
func (r *run) route(nowC uint64, parent int64) {
	p := &r.reqs[parent]
	p.tries++
	m, primary := -1, -1
	if p.shard >= 0 {
		primary = r.f.Sharder.Owner(p.shard)
		r.buf = r.f.Sharder.Owners(p.shard, r.buf[:0])
		for _, o := range r.buf {
			if r.healthy(o) {
				m = o
				break
			}
		}
	} else {
		m = r.pick()
	}
	if m < 0 {
		r.retry(nowC, parent, primary, "down")
		return
	}
	if p.shard >= 0 && m != primary {
		r.res.Failovers++
		r.publishFailover(nowC, p.shard, m, "")
	}
	r.send(nowC, parent, m, false)
}

// send records one attempt, arms its timers and pushes it through the
// (possibly degraded) link to machine m.
func (r *run) send(nowC uint64, parent int64, m int, hedge bool) {
	id := int64(len(r.attempts))
	a := attempt{parent: parent, machine: m, sent: nowC, hedge: hedge}
	if r.timeoutC > 0 {
		a.deadline = nowC + r.timeoutC
	}
	r.attempts = append(r.attempts, a)
	if a.deadline > 0 || r.hedgeable(&a, &r.reqs[parent]) {
		r.outstanding = append(r.outstanding, id)
	}
	inj := r.f.Injector()
	if inj.LinkDrop(m) > 0 {
		lost := inj.DropRoll(m, r.dropN[m])
		r.dropN[m]++
		if lost {
			r.res.WireDropped++
			r.publishRetry(nowC, parent, m, "drop")
			return // only a timeout recovers it
		}
	}
	if delay := inj.LinkDelay(m); delay > 0 {
		r.wire = append(r.wire, wireMsg{deliver: nowC + delay, tag: id})
		return
	}
	r.deliver(nowC, id)
}

// deliver lands one attempt in its machine's admission queue; a full (or
// browned-out) queue sheds it.
func (r *run) deliver(nowC uint64, tag int64) {
	a := &r.attempts[tag]
	p := &r.reqs[a.parent]
	adm := r.adms[a.machine]
	if !adm.Offer(nowC, p.at, tag) {
		r.lost(nowC, a, "shed")
		return
	}
	r.res.PerMachine[a.machine].Routed++
	if r.bus != nil {
		r.bus.Publish(obs.Event{
			Kind: obs.KindRoute, Now: nowC, Core: -1,
			V1: int64(adm.QueueLen()), V2: int64(p.shard),
			Label: p.label, Machine: int32(a.machine),
		})
	}
}

// complete is attempt → completed (Admission.OnComplete): the first
// completion of every sub-query resolves the parent.
func (r *run) complete(tag int64, q *db.Query, _, _ uint64) {
	a := &r.attempts[tag]
	a.done = true
	p := &r.reqs[a.parent]
	if p.done {
		return // a faster attempt already won; ignore the straggler
	}
	p.merged += q.Scalar(r.c.MergeScalar)
	p.pending--
	if p.pending == 0 {
		r.resolve(r.f.Now(), p, completed)
	}
}

// crashed is Admission.OnFail: the machine went down under a queued or
// in-flight attempt.
func (r *run) crashed(tag int64) {
	a := &r.attempts[tag]
	a.done = true
	r.lost(r.f.Now(), a, "down")
}

// lost is the attempt that will not be served — shed at a full queue, or
// aborted by a crash. A scatter fails whole (a partial fan-out would
// merge a partial result); anything else goes back through retry.
func (r *run) lost(nowC uint64, a *attempt, reason string) {
	p := &r.reqs[a.parent]
	switch {
	case p.done:
	case p.label == labelScatter:
		r.resolve(nowC, p, failed)
	default:
		r.retry(nowC, a.parent, a.machine, reason)
	}
}

// retry decides what a request does after a send that led nowhere
// (reason: shed, down, timeout): with budget left it is retry-scheduled
// behind a capped exponential backoff; without, it resolves — dropped
// when it never had a budget (the plain shed of a full queue), failed
// when it spent one.
func (r *run) retry(nowC uint64, parent int64, m int, reason string) {
	p := &r.reqs[parent]
	switch {
	case p.done:
	case p.tries <= r.budget:
		r.res.Retried++
		// Doubled per try, capped at 8x the base.
		backoff := r.backoffC << min(uint(p.tries-1), 3)
		r.retryQ = append(r.retryQ, retryEntry{parent: parent, due: nowC + backoff})
		r.publishRetry(nowC, parent, m, reason)
	case r.budget == 0:
		r.resolve(nowC, p, dropped)
	default:
		r.resolve(nowC, p, failed)
	}
}

// resolve finishes a parent request's bookkeeping exactly once.
func (r *run) resolve(nowC uint64, p *parentReq, o outcome) {
	p.done = true
	var lat uint64
	switch o {
	case completed:
		r.res.Completed++
		r.res.MergedScalars += p.merged
		lat = nowC - p.at
		r.res.Latency.Record(lat)
	case dropped:
		r.res.Dropped++
	case failed:
		r.res.Failed++
	}
	if r.c.OnOutcome != nil {
		r.c.OnOutcome(nowC, lat, o == completed)
	}
}

func (r *run) publishRetry(nowC uint64, parent int64, m int, reason string) {
	if r.bus != nil {
		r.bus.Publish(obs.Event{
			Kind: obs.KindRetry, Now: nowC, Core: -1,
			V1: parent, V2: int64(r.reqs[parent].tries),
			Label: reason, Machine: int32(m),
		})
	}
}

// publishFailover reports shard being served by machine m instead of
// its primary; label is "hedge" for a duplicate, empty for a failover.
func (r *run) publishFailover(nowC uint64, shard, m int, label string) {
	if r.bus != nil {
		r.bus.Publish(obs.Event{
			Kind: obs.KindFailover, Now: nowC, Core: -1,
			V1: int64(shard), V2: int64(r.f.Sharder.Owner(shard)),
			Label: label, Machine: int32(m),
		})
	}
}

// hedgeable reports whether attempt a of parent p may still fire its one
// hedge (expire's condition, minus the clock). It never turns true again
// once false, which is what lets send leave the attempt off outstanding.
func (r *run) hedgeable(a *attempt, p *parentReq) bool {
	return r.hedgeC > 0 && p.shard >= 0 && !p.hedged && !a.hedge && r.f.Sharder.Replicas() > 1
}

// expire times out overdue attempts and fires due hedges. Hedge sends
// are staged and applied after the scan: send appends to outstanding,
// which must not grow mid-compaction.
func (r *run) expire(nowC uint64) {
	r.hedges = r.hedges[:0]
	kept := r.outstanding[:0]
	for _, id := range r.outstanding {
		a := &r.attempts[id]
		p := &r.reqs[a.parent]
		if a.done || p.done {
			continue
		}
		if a.deadline > 0 && nowC >= a.deadline {
			r.retry(nowC, a.parent, a.machine, "timeout")
			continue
		}
		if r.hedgeable(a, p) && nowC >= a.sent+r.hedgeC {
			r.hedges = append(r.hedges, id)
		}
		kept = append(kept, id)
	}
	r.outstanding = kept
	for _, id := range r.hedges {
		parent, from := r.attempts[id].parent, r.attempts[id].machine
		p := &r.reqs[parent]
		if p.done || p.hedged {
			continue
		}
		r.buf = r.f.Sharder.Owners(p.shard, r.buf[:0])
		for _, o := range r.buf {
			if o != from && r.healthy(o) {
				p.hedged = true
				r.res.Hedged++
				r.publishFailover(nowC, p.shard, o, "hedge")
				r.send(nowC, parent, o, true)
				break
			}
		}
	}
}

// drainRetries routes again every retry whose backoff has elapsed. Due
// parents are staged first: a failed resend re-enters retryQ, which must
// not grow mid-compaction.
func (r *run) drainRetries(nowC uint64) {
	r.dueBuf = r.dueBuf[:0]
	kept := r.retryQ[:0]
	for _, e := range r.retryQ {
		if e.due > nowC {
			kept = append(kept, e)
			continue
		}
		r.dueBuf = append(r.dueBuf, e.parent)
	}
	r.retryQ = kept
	for _, parent := range r.dueBuf {
		if !r.reqs[parent].done {
			r.route(nowC, parent)
		}
	}
}

// Before and After make run the open loop's timers: before each pass's
// arrivals it times out attempts, fires hedges and resends due retries;
// after them it lands the wire messages whose link delay has elapsed, so a
// delayed send queues behind the arrivals of its quantum.
func (r *run) Before(nowC uint64) {
	r.expire(nowC)
	r.drainRetries(nowC)
}

func (r *run) After(nowC uint64) {
	kept := r.wire[:0]
	for _, w := range r.wire {
		if w.deliver > nowC {
			kept = append(kept, w)
			continue
		}
		if !r.reqs[r.attempts[w.tag].parent].done {
			r.deliver(nowC, w.tag)
		}
	}
	r.wire = kept
}

// Quiet reports whether no retry, wire or timeout work is pending (the
// timers' half of the open loop's stop test).
func (r *run) Quiet() bool {
	if len(r.retryQ) > 0 || len(r.wire) > 0 {
		return false
	}
	for _, id := range r.outstanding {
		a := &r.attempts[id]
		if !a.done && a.deadline > 0 && !r.reqs[a.parent].done {
			return false
		}
	}
	return true
}

// NextAt returns the earliest cycle at which Before or After will find
// something to do — an outstanding attempt's timeout or hedge point, a
// retry's backoff, a wire delivery — or the maximum uint64 when nothing is
// scheduled. A time at or before now means "every quantum" (a hedge that
// found no healthy replica is retried until one appears).
func (r *run) NextAt() uint64 {
	next := ^uint64(0)
	for _, e := range r.retryQ {
		next = min(next, e.due)
	}
	for _, w := range r.wire {
		next = min(next, w.deliver)
	}
	for _, id := range r.outstanding {
		a := &r.attempts[id]
		p := &r.reqs[a.parent]
		if a.done || p.done {
			continue
		}
		if a.deadline > 0 {
			next = min(next, a.deadline)
		}
		if r.hedgeable(a, p) {
			next = min(next, a.sent+r.hedgeC)
		}
	}
	return next
}

// summary closes the books: whatever is still unresolved was abandoned
// at the deadline, and the per-machine admission layers fold in.
func (r *run) summary(elapsed float64) Result {
	res := &r.res
	res.Abandoned = res.Offered - res.Completed - res.Dropped - res.Failed
	res.ElapsedSeconds = elapsed
	if elapsed > 0 {
		res.Throughput = float64(res.Completed) / elapsed
	}
	for m, adm := range r.adms {
		st := &res.PerMachine[m]
		st.Admitted = adm.Admitted
		st.Dropped = adm.Dropped
		st.Completed = adm.Completed
		st.PeakQueueDepth = adm.PeakQueueDepth
		st.PeakInFlight = adm.PeakInFlight
		st.Latency = adm.Latency
		st.AllocatedEnd = r.f.Rigs[m].AllocatedCores()
		res.QueueWait.Merge(&adm.QueueWait)
		res.Service.Merge(&adm.Service)
		r.f.Rigs[m].Engine.Drain()
	}
	return *res
}

// maxJump caps how many quanta one pass of the open loop may advance the
// fleet. Only tests assign it: 1 forces the quantum-by-quantum loop the
// jumping one must be indistinguishable from.
var maxJump = 1 << 30

// MachineStats is one machine's share of a coordinator run.
type MachineStats struct {
	// Routed counts requests (or scatter sub-queries) sent here.
	Routed int
	// Admitted, Dropped and Completed are the machine's admission-layer
	// outcomes; PeakQueueDepth and PeakInFlight its maxima.
	Admitted, Dropped, Completed int
	PeakQueueDepth, PeakInFlight int
	// Latency is the machine-local per-query latency histogram (cycles).
	Latency metrics.Histogram
	// AllocatedEnd is the machine's core count when the run ended.
	AllocatedEnd int
}

// Result summarizes one coordinator run. Counts are parent requests
// (a scatter counts once, however many machines it fanned to).
type Result struct {
	// ElapsedSeconds is the virtual wall time of the run.
	ElapsedSeconds float64
	// Offered = Completed + Dropped + Failed + Abandoned: every generated
	// request either finished, was dropped, failed, or was still queued,
	// in flight or waiting out a backoff at the deadline.
	//
	// Dropped counts requests refused without a retry budget to spend: a
	// scatter that could not seat every sub-query (it is shed whole and
	// never resent), and any other request shed at a full queue while the
	// budget (see Coordinator.MaxRetries) is zero.
	Offered, Completed, Dropped, Abandoned int
	// Failed counts requests that gave up after trying: a non-zero retry
	// budget exhausted (by sheds, timeouts, crashes or having no healthy
	// machine to go to), or a scatter sub-query aborted by a machine
	// crash.
	Failed int
	// Retried, Hedged, Failovers and WireDropped count fault-tolerance
	// actions: scheduled resends, hedged duplicates, requests served by a
	// non-primary replica, and sends lost on a degraded link.
	Retried, Hedged, Failovers, WireDropped int
	// RoutedKeyed, RoutedBalanced and Scattered split Offered by routing
	// kind, counted as a request is offered, whatever becomes of it.
	RoutedKeyed, RoutedBalanced, Scattered int
	// Throughput is parent completions per virtual second.
	Throughput float64
	// Latency is the fleet-wide parent-request latency histogram in
	// cycles (arrival to last sub-query completion).
	Latency metrics.Histogram
	// QueueWait and Service are fleet-wide per-query histograms, merged
	// bucket-wise from the per-machine admission layers.
	QueueWait, Service metrics.Histogram
	// MergedScalars sums every completed request's merged scalar — the
	// cross-check that scatter-gather merging loses nothing.
	MergedScalars float64
	// PerMachine is indexed by machine.
	PerMachine []MachineStats
}

// Coordinator replays an arrival process against a fleet.
type Coordinator struct {
	// Fleet is the machine pool (required).
	Fleet *Fleet
	// Process generates arrival timestamps relative to the run start. A
	// nil process offers nothing.
	Process arrivals.Process
	// Policy routes unkeyed requests, first sends and resends alike,
	// among the healthy machines (default BalanceShortestQueue).
	Policy Policy
	// Keys, when set, returns the routing key of the k-th offered
	// request (0-based); its shard's owner serves it. Nil leaves every
	// request unkeyed (balance-routed).
	Keys func(k int) uint64
	// ScatterEvery makes every n-th offered request (1-based: requests
	// n-1, 2n-1, ...) a scatter-gather over all machines; 0 disables.
	ScatterEvery int
	// Build builds the plan of an admitted (sub-)query from its parent
	// request id (default tpch.BuildQ6(id+1)); a scatter's sub-queries
	// share the parent id, i.e. they are the same query on every shard.
	Build func(id uint64) *db.Plan
	// MergeScalar names the scalar summed across sub-queries (default
	// "result", Q6's revenue).
	MergeScalar string
	// MaxInFlight and QueueCap bound each machine's admission layer
	// (defaults 64 and 1024, as for the single-machine OpenDriver).
	MaxInFlight, QueueCap int
	// MaxArrivals stops offering after this many requests; zero offers
	// until MaxSeconds.
	MaxArrivals int
	// MaxSeconds bounds the run in virtual time (default 600).
	MaxSeconds float64

	// TimeoutSeconds is the per-attempt timeout: an attempt still
	// unresolved this many virtual seconds after it was sent is retried
	// with capped exponential backoff. The original is never cancelled —
	// whichever attempt completes first wins and later ones are ignored.
	// Zero disables timeouts.
	TimeoutSeconds float64
	// MaxRetries is the retry budget: the resends one request may consume
	// after its first send, whatever makes a send lead nowhere (shed at a
	// full queue, timeout, crash, no healthy machine). Zero selects 3
	// when TimeoutSeconds, HedgeAfterSeconds or the fleet's fault plan is
	// set and no budget otherwise. A request shed with no budget counts
	// as Dropped; one that exhausts a budget counts as Failed.
	MaxRetries int
	// BackoffSeconds is the base retry delay, doubled per attempt and
	// capped at 8x the base (default 5 ms).
	BackoffSeconds float64
	// HedgeAfterSeconds sends one duplicate of a still-pending keyed
	// request to the next healthy replica owner after this long; zero
	// disables. Hedges need Replicas >= 2 to have anywhere to go and do
	// not consume retry budget.
	HedgeAfterSeconds float64
	// OnOutcome, when set, observes every parent request as it resolves:
	// ok true with the total latency on completion, ok false (latency 0)
	// on a drop or failure. Experiments use it to window latency and
	// shed-rate timelines through a fault.
	OnOutcome func(nowC, latency uint64, ok bool)
}

// Run replays the arrival process to completion (or the deadline) and
// returns the fleet-wide summary. It is the fleet's workload.OpenLoop: the
// run's fault-tolerance timers plug in around each pass's arrivals.
func (c *Coordinator) Run() Result {
	f := c.Fleet
	r := newRun(c)
	defer r.close()
	startTime := f.NowSeconds()
	loop := workload.OpenLoop{Admissions: r.adms, Process: c.Process, MaxArrivals: c.MaxArrivals, MaxSeconds: c.MaxSeconds, Timers: r}
	loop.Run(r.offer, r.plan, nil, func(n int) { f.Advance(min(n, maxJump)) })
	return r.summary(f.NowSeconds() - startTime)
}
