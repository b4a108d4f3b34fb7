package cluster

import (
	"elasticore/internal/arrivals"
	"elasticore/internal/db"
	"elasticore/internal/metrics"
	"elasticore/internal/numa"
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

// parentReq tracks one routed request until every sub-query finishes.
type parentReq struct {
	at      uint64
	pending int
	merged  float64
	label   string
	// Fault-tolerance fields, used only on the FT path (see ftState):
	// the routing key (keyed requests re-route on retry), whether the
	// request resolved (completed, failed or dropped — later attempt
	// completions are ignored), whether its one hedge was spent, and how
	// many send attempts it has consumed.
	key    uint64
	keyed  bool
	done   bool
	hedged bool
	tries  int
}

// attempt is one send of a parent request to one machine: the admission
// tag on the FT path indexes this table, so retries and hedges of the
// same parent stay distinguishable.
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

// wireMsg is one request in flight on a degraded link, delivered to its
// machine's admission queue only after the link's added delay.
type wireMsg struct {
	at      uint64 // original arrival cycle (queue-wait baseline)
	deliver uint64
	machine int
	tag     int64
}

// ftState is the coordinator's fault-tolerance machinery, allocated only
// when timeouts, hedging or a compiled fault plan make it reachable — a
// coordinator without any of those runs the exact pre-FT code path, so
// healthy-fleet results stay byte-identical.
type ftState struct {
	timeoutC, hedgeC, backoffC uint64
	maxRetries                 int
	replicas                   int // copies of every shard; a hedge needs two

	attempts    []attempt
	outstanding []int64
	retryQ      []retryEntry
	wire        []wireMsg
	dropN       []uint64 // per-machine link-drop roll counters
	buf         []int
	// dueBuf and hedges stage work found while compacting retryQ and
	// outstanding, so acting on it (which appends to those same slices)
	// never aliases an in-progress scan.
	dueBuf []int64
	hedges []int64
}

// quiet reports whether no retry, wire or timeout work is pending (the
// FT half of the run loop's idle test).
func (ft *ftState) quiet(reqs []parentReq) bool {
	if len(ft.retryQ) > 0 || len(ft.wire) > 0 {
		return false
	}
	for _, id := range ft.outstanding {
		a := &ft.attempts[id]
		if !a.done && a.deadline > 0 && !reqs[a.parent].done {
			return false
		}
	}
	return true
}

// hedgeable reports whether attempt a of parent p may still fire its
// one hedge (expire's condition, minus the clock).
func (ft *ftState) hedgeable(a *attempt, p *parentReq) bool {
	return ft.hedgeC > 0 && p.keyed && !p.hedged && !a.hedge && ft.replicas > 1
}

// nextAt returns the earliest cycle at which expire, drainRetries or
// deliverWire will find something to do — an outstanding attempt's
// timeout or hedge point, a retry's backoff, a wire delivery — or the
// maximum uint64 when nothing is scheduled. A time at or before now
// means "every quantum" (a hedge that found no healthy replica is
// retried until one appears).
func (ft *ftState) nextAt(reqs []parentReq) uint64 {
	next := ^uint64(0)
	for _, e := range ft.retryQ {
		next = min(next, e.due)
	}
	for _, w := range ft.wire {
		next = min(next, w.deliver)
	}
	for _, id := range ft.outstanding {
		a := &ft.attempts[id]
		p := &reqs[a.parent]
		if a.done || p.done {
			continue
		}
		if a.deadline > 0 {
			next = min(next, a.deadline)
		}
		if ft.hedgeable(a, p) {
			next = min(next, a.sent+ft.hedgeC)
		}
	}
	return next
}

// deadlineCycle returns the first cycle of the quantum grid start,
// start+quantum, ... at which the run loop's float-seconds deadline test
// CyclesToSeconds(now) >= CyclesToSeconds(start)+maxSeconds holds, so
// the loop can decide the deadline, like every other due time, in
// integer cycles. The conversion is monotone in the cycle count, which
// makes the first such grid point a binary search; a deadline beyond
// the clock's range never fires.
func deadlineCycle(topo *numa.Topology, start, quantum uint64, maxSeconds float64) uint64 {
	deadline := topo.CyclesToSeconds(start) + maxSeconds
	lo, hi := uint64(0), (^uint64(0)-start)/quantum // grid steps; the answer is in [lo, hi] or absent
	if topo.CyclesToSeconds(start+hi*quantum) < deadline {
		return ^uint64(0)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if topo.CyclesToSeconds(start+mid*quantum) >= deadline {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return start + lo*quantum
}

// maxJump caps how many quanta one iteration of the run loop may
// advance. Only tests assign it: 1 forces the quantum-by-quantum loop
// the jumping one must be indistinguishable from.
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
	// request either finished, was shed at a full queue (a scatter sheds
	// atomically: all sub-queries or none), exhausted its fault-tolerance
	// retries, or was still queued or in flight at the deadline.
	Offered, Completed, Dropped, Abandoned int
	// Failed counts parent requests that gave up — retries exhausted, or
	// a scatter sub-query aborted by a machine crash.
	Failed int
	// Retried, Hedged, Failovers and WireDropped count fault-tolerance
	// actions: scheduled resends, hedged duplicates, requests served by a
	// non-primary replica, and sends lost on a degraded link.
	Retried, Hedged, Failovers, WireDropped int
	// RoutedKeyed, RoutedBalanced and Scattered split Offered by routing
	// kind.
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
	// Policy routes unkeyed requests (default BalanceShortestQueue).
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
	// DisableBacklog leaves the mechanisms' queue-pressure inputs
	// unwired (A/B baselines).
	DisableBacklog bool

	// TimeoutSeconds is the per-attempt timeout: an attempt still
	// unresolved this many virtual seconds after it was sent is retried
	// with capped exponential backoff. The original is never cancelled —
	// whichever attempt completes first wins and later ones are ignored.
	// Zero disables timeouts.
	TimeoutSeconds float64
	// MaxRetries bounds resends per request after the first attempt; a
	// request that exhausts them counts as Failed. Zero selects 3 when
	// the fault machinery is active.
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

// pick returns the balance policy's machine for an unkeyed request.
func (c *Coordinator) pick(adms []*workload.Admission) int {
	best := 0
	switch c.Policy {
	case BalanceWeighted:
		// Lowest queue depth per allocated core: compare q_i/w_i by
		// cross-multiplication to stay in integers.
		bw := c.Fleet.Rigs[0].AllocatedCores()
		bq := adms[0].QueueLen() + adms[0].InFlight()
		for m := 1; m < len(adms); m++ {
			w := c.Fleet.Rigs[m].AllocatedCores()
			q := adms[m].QueueLen() + adms[m].InFlight()
			if q*bw < bq*w {
				best, bq, bw = m, q, w
			}
		}
	default:
		for m := 1; m < len(adms); m++ {
			q, b := adms[m], adms[best]
			if q.QueueLen() < b.QueueLen() ||
				(q.QueueLen() == b.QueueLen() && q.InFlight() < b.InFlight()) {
				best = m
			}
		}
	}
	return best
}

// Run replays the arrival process to completion (or the deadline) and
// returns the fleet-wide summary.
func (c *Coordinator) Run() Result {
	f := c.Fleet
	if c.MaxSeconds == 0 {
		c.MaxSeconds = 600
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.Build == nil {
		c.Build = func(id uint64) *db.Plan { return tpch.BuildQ6(id + 1) }
	}
	if c.MergeScalar == "" {
		c.MergeScalar = "result"
	}
	topo := f.Rigs[0].Machine.Topology()
	bus := f.Bus

	// The FT machinery only exists when something can need it; without
	// it the run takes the exact pre-FT code path.
	var ft *ftState
	if c.TimeoutSeconds > 0 || c.HedgeAfterSeconds > 0 || f.Injector() != nil {
		ft = &ftState{
			timeoutC:   topo.SecondsToCycles(c.TimeoutSeconds),
			hedgeC:     topo.SecondsToCycles(c.HedgeAfterSeconds),
			maxRetries: c.MaxRetries,
			replicas:   f.Sharder.Replicas(),
			dropN:      make([]uint64, len(f.Rigs)),
		}
		if ft.maxRetries == 0 {
			ft.maxRetries = 3
		}
		backoff := c.BackoffSeconds
		if backoff == 0 {
			backoff = 5e-3
		}
		ft.backoffC = topo.SecondsToCycles(backoff)
	}

	var res Result
	res.PerMachine = make([]MachineStats, len(f.Rigs))
	var reqs []parentReq

	// resolve finishes a parent request's bookkeeping exactly once.
	resolve := func(nowC uint64, p *parentReq, ok bool) {
		p.done = true
		var lat uint64
		if ok {
			res.Completed++
			res.MergedScalars += p.merged
			lat = nowC - p.at
			res.Latency.Record(lat)
		}
		if c.OnOutcome != nil {
			c.OnOutcome(nowC, lat, ok)
		}
	}

	adms := make([]*workload.Admission, len(f.Rigs))
	for m, r := range f.Rigs {
		adm := &workload.Admission{
			Rig:         r,
			MaxInFlight: c.MaxInFlight,
			QueueCap:    c.QueueCap,
			MachineID:   int32(m),
		}
		adm.OnComplete = func(tag int64, q *db.Query, total, service uint64) {
			id := tag
			if ft != nil {
				ft.attempts[tag].done = true
				id = ft.attempts[tag].parent
			}
			p := &reqs[id]
			if p.done {
				return // a faster attempt already won; ignore the straggler
			}
			p.merged += q.Scalar(c.MergeScalar)
			p.pending--
			if p.pending == 0 {
				if ft != nil {
					resolve(f.Now(), p, true)
					return
				}
				res.Completed++
				res.MergedScalars += p.merged
				res.Latency.Record(f.Now() - p.at)
				if c.OnOutcome != nil {
					c.OnOutcome(f.Now(), f.Now()-p.at, true)
				}
			}
		}
		adms[m] = adm
		f.RegisterAdmission(m, adm)
		defer f.RegisterAdmission(m, nil)
		if r.Mech != nil && !c.DisableBacklog {
			r.Mech.SetBacklog(adm.QueueLen)
			defer r.Mech.SetBacklog(nil)
		}
	}
	plans := make([]func(k int, tag int64) *db.Plan, len(f.Rigs))
	for m := range plans {
		plans[m] = func(_ int, tag int64) *db.Plan {
			id := tag
			if ft != nil {
				id = ft.attempts[tag].parent
			}
			return c.Build(uint64(id))
		}
	}

	// --- FT helpers (no-ops when ft == nil; never called then) ---

	// healthy reports whether machine m can take traffic right now: its
	// admission connections are up (a crash resets them, so this is
	// local knowledge, not an oracle) and the health monitor does not
	// believe it dead.
	healthy := func(m int) bool {
		if adms[m].Down {
			return false
		}
		if h := f.Health(); h != nil && h.Dead(m) {
			return false
		}
		return true
	}

	var scheduleRetry func(nowC uint64, parent int64, m int, reason string)
	scheduleRetry = func(nowC uint64, parent int64, m int, reason string) {
		p := &reqs[parent]
		if p.done {
			return
		}
		if p.tries > ft.maxRetries {
			res.Failed++
			resolve(nowC, p, false)
			return
		}
		shift := uint(p.tries - 1)
		if shift > 3 {
			shift = 3 // cap the backoff at 8x the base
		}
		backoff := ft.backoffC << shift
		res.Retried++
		ft.retryQ = append(ft.retryQ, retryEntry{parent: parent, due: nowC + backoff})
		if bus != nil {
			bus.Publish(obs.Event{
				Kind: obs.KindRetry, Now: nowC, Core: -1,
				V1: parent, V2: int64(p.tries),
				Label: reason, Machine: int32(m),
			})
		}
	}

	// deliver lands one attempt in its machine's admission queue; a full
	// (or browned-out) queue sheds the attempt into the retry path.
	deliver := func(nowC, at uint64, m int, tag int64) {
		if !adms[m].Offer(nowC, at, tag) {
			scheduleRetry(nowC, ft.attempts[tag].parent, m, "shed")
			return
		}
		res.PerMachine[m].Routed++
		if bus != nil {
			p := &reqs[ft.attempts[tag].parent]
			shard := int64(-1)
			if p.keyed {
				shard = int64(f.Sharder.Shard(p.key))
			}
			bus.Publish(obs.Event{
				Kind: obs.KindRoute, Now: nowC, Core: -1,
				V1: int64(adms[m].QueueLen()), V2: shard,
				Label: p.label, Machine: int32(m),
			})
		}
	}

	// sendAttempt records one send and pushes it through the (possibly
	// degraded) link to machine m.
	sendAttempt := func(nowC uint64, parent int64, m int, hedge bool) {
		p := &reqs[parent]
		id := int64(len(ft.attempts))
		a := attempt{parent: parent, machine: m, sent: nowC, hedge: hedge}
		if ft.timeoutC > 0 {
			a.deadline = nowC + ft.timeoutC
		}
		ft.attempts = append(ft.attempts, a)
		ft.outstanding = append(ft.outstanding, id)
		inj := f.Injector()
		if inj.LinkDrop(m) > 0 {
			dropped := inj.DropRoll(m, ft.dropN[m])
			ft.dropN[m]++
			if dropped {
				res.WireDropped++
				if bus != nil {
					bus.Publish(obs.Event{
						Kind: obs.KindRetry, Now: nowC, Core: -1,
						V1: parent, V2: int64(p.tries),
						Label: "drop", Machine: int32(m),
					})
				}
				return // lost on the wire; only a timeout recovers it
			}
		}
		if delay := inj.LinkDelay(m); delay > 0 {
			ft.wire = append(ft.wire, wireMsg{at: p.at, deliver: nowC + delay, machine: m, tag: id})
			return
		}
		deliver(nowC, p.at, m, id)
	}

	// routeAndSend picks a machine for a (re)send: keyed requests go to
	// the first healthy machine in the shard's owner preference order
	// (failover when that is not the primary), unkeyed ones to the
	// balance policy's pick among healthy machines.
	routeAndSend := func(nowC uint64, parent int64) {
		p := &reqs[parent]
		m := -1
		if p.keyed {
			shard := f.Sharder.Shard(p.key)
			primary := f.Sharder.Owner(shard)
			ft.buf = f.Sharder.Owners(shard, ft.buf[:0])
			for _, o := range ft.buf {
				if healthy(o) {
					m = o
					break
				}
			}
			if m >= 0 && m != primary {
				res.Failovers++
				if bus != nil {
					bus.Publish(obs.Event{
						Kind: obs.KindFailover, Now: nowC, Core: -1,
						V1: int64(shard), V2: int64(primary),
						Machine: int32(m),
					})
				}
			}
			if m < 0 {
				p.tries++
				scheduleRetry(nowC, parent, primary, "down")
				return
			}
		} else {
			best := -1
			for o := range adms {
				if !healthy(o) {
					continue
				}
				if best < 0 {
					best = o
					continue
				}
				q, b := adms[o], adms[best]
				if q.QueueLen() < b.QueueLen() ||
					(q.QueueLen() == b.QueueLen() && q.InFlight() < b.InFlight()) {
					best = o
				}
			}
			if best < 0 {
				p.tries++
				scheduleRetry(nowC, parent, -1, "down")
				return
			}
			m = best
		}
		p.tries++
		sendAttempt(nowC, parent, m, false)
	}

	// expire times out overdue attempts and fires due hedges. Hedge
	// sends are staged and applied after the scan: sendAttempt appends
	// to outstanding, which must not grow mid-compaction.
	expire := func(nowC uint64) {
		ft.hedges = ft.hedges[:0]
		kept := ft.outstanding[:0]
		for _, id := range ft.outstanding {
			a := &ft.attempts[id]
			p := &reqs[a.parent]
			if a.done || p.done {
				continue
			}
			if a.deadline > 0 && nowC >= a.deadline {
				scheduleRetry(nowC, a.parent, a.machine, "timeout")
				continue
			}
			if ft.hedgeable(a, p) && nowC >= a.sent+ft.hedgeC {
				ft.hedges = append(ft.hedges, id)
			}
			kept = append(kept, id)
		}
		ft.outstanding = kept
		for _, id := range ft.hedges {
			a := &ft.attempts[id]
			p := &reqs[a.parent]
			if p.done || p.hedged {
				continue
			}
			shard := f.Sharder.Shard(p.key)
			ft.buf = f.Sharder.Owners(shard, ft.buf[:0])
			for _, o := range ft.buf {
				if o != a.machine && healthy(o) {
					p.hedged = true
					res.Hedged++
					if bus != nil {
						bus.Publish(obs.Event{
							Kind: obs.KindFailover, Now: nowC, Core: -1,
							V1: int64(shard), V2: int64(f.Sharder.Owner(shard)),
							Label: "hedge", Machine: int32(o),
						})
					}
					sendAttempt(nowC, a.parent, o, true)
					break
				}
			}
		}
	}

	// drainRetries resends every retry whose backoff has elapsed. Due
	// parents are staged first: a failed resend re-enters retryQ, which
	// must not grow mid-compaction.
	drainRetries := func(nowC uint64) {
		ft.dueBuf = ft.dueBuf[:0]
		kept := ft.retryQ[:0]
		for _, e := range ft.retryQ {
			if e.due > nowC {
				kept = append(kept, e)
				continue
			}
			ft.dueBuf = append(ft.dueBuf, e.parent)
		}
		ft.retryQ = kept
		for _, parent := range ft.dueBuf {
			if !reqs[parent].done {
				routeAndSend(nowC, parent)
			}
		}
	}

	// deliverWire lands wire messages whose link delay has elapsed.
	deliverWire := func(nowC uint64) {
		kept := ft.wire[:0]
		for _, w := range ft.wire {
			if w.deliver > nowC {
				kept = append(kept, w)
				continue
			}
			if !reqs[ft.attempts[w.tag].parent].done {
				deliver(nowC, w.at, w.machine, w.tag)
			}
		}
		ft.wire = kept
	}

	if ft != nil {
		// A crash aborts a machine's queued and in-flight attempts:
		// scatters fail whole (a partial fan-out would merge a partial
		// result), everything else re-enters the retry path.
		for _, adm := range adms {
			adm.OnFail = func(tag int64) {
				a := &ft.attempts[tag]
				a.done = true
				p := &reqs[a.parent]
				if p.done {
					return
				}
				if p.label == "scatter" {
					res.Failed++
					resolve(f.Now(), p, false)
					return
				}
				scheduleRetry(f.Now(), a.parent, a.machine, "down")
			}
		}
	}

	// Every due time of the loop below is an integer cycle (OpenDriver's
	// rule): arrivals, the fault-tolerance timers, and the deadline.
	startCycle := f.Now()
	startTime := f.NowSeconds()
	quantum := f.Rigs[0].Sched.Quantum()
	deadlineC := deadlineCycle(topo, startCycle, quantum, c.MaxSeconds)
	pump := workload.NewArrivalPump(c.Process, topo, startCycle, c.MaxArrivals)

	// offer routes one request at arrival cycle at.
	offer := func(nowC, at uint64) {
		id := int64(len(reqs))
		k := res.Offered
		res.Offered++
		scatter := c.ScatterEvery > 0 && (k+1)%c.ScatterEvery == 0
		switch {
		case scatter:
			res.Scattered++
			// Atomic admission: a scatter that cannot seat every
			// sub-query is shed whole — a partial fan-out would merge a
			// partial result. A crashed machine sheds it the same way.
			for _, adm := range adms {
				if adm.QueueLen() >= c.QueueCap || (ft != nil && adm.Down) {
					res.Dropped++
					if c.OnOutcome != nil {
						c.OnOutcome(nowC, 0, false)
					}
					return
				}
			}
			reqs = append(reqs, parentReq{at: at, pending: len(adms), label: "scatter"})
			for m, adm := range adms {
				tag := id
				if ft != nil {
					// Scatter sub-queries get attempt records (the tag
					// space is shared) but no timeout or hedge: a crash
					// fails the parent fast instead.
					tag = int64(len(ft.attempts))
					ft.attempts = append(ft.attempts, attempt{parent: id, machine: m, sent: nowC})
				}
				adm.Offer(nowC, at, tag)
				res.PerMachine[m].Routed++
				if bus != nil {
					bus.Publish(obs.Event{
						Kind: obs.KindRoute, Now: nowC, Core: -1,
						V1: int64(adm.QueueLen()), V2: -1,
						Label: "scatter", Machine: int32(m),
					})
				}
			}
		case ft != nil:
			p := parentReq{at: at, pending: 1, label: "any"}
			if c.Keys != nil {
				p.key, p.keyed, p.label = c.Keys(k), true, "keyed"
			}
			reqs = append(reqs, p)
			if p.keyed {
				res.RoutedKeyed++
			} else {
				res.RoutedBalanced++
			}
			routeAndSend(nowC, id)
		default:
			m, shard, label := 0, int64(-1), "any"
			if c.Keys != nil {
				key := c.Keys(k)
				s := f.Sharder.Shard(key)
				m, shard, label = f.Sharder.Owner(s), int64(s), "keyed"
			} else {
				m = c.pick(adms)
			}
			reqs = append(reqs, parentReq{at: at, pending: 1, label: label})
			if !adms[m].Offer(nowC, at, id) {
				res.Dropped++
				reqs[id].pending = 0
				if c.OnOutcome != nil {
					c.OnOutcome(nowC, 0, false)
				}
				return
			}
			res.PerMachine[m].Routed++
			if label == "keyed" {
				res.RoutedKeyed++
			} else {
				res.RoutedBalanced++
			}
			if bus != nil {
				bus.Publish(obs.Event{
					Kind: obs.KindRoute, Now: nowC, Core: -1,
					V1: int64(adms[m].QueueLen()), V2: shard,
					Label: label, Machine: int32(m),
				})
			}
		}
	}

	for {
		nowC := f.Now()
		for _, adm := range adms {
			adm.Collect(nowC)
		}
		if ft != nil {
			expire(nowC)
			drainRetries(nowC)
		}
		pump.Due(nowC, offer)
		if ft != nil {
			deliverWire(nowC)
		}
		idle, drained := true, true
		for m, adm := range adms {
			adm.Fill(nowC, plans[m])
			adm.UpdatePeaks()
			idle = idle && adm.Idle()
			drained = drained && adm.Drained()
		}
		if ft != nil && idle {
			idle = ft.quiet(reqs)
		}
		if !pump.More() && idle {
			break
		}
		if nowC >= deadlineC {
			break
		}
		// With every admission drained the passes above find nothing to
		// do until the next arrival or fault-tolerance timer, so the loop
		// jumps to the first quantum at or after it, never past the
		// deadline. Fleet.Advance still stops at every barrier the fleet
		// itself needs (control period, probe, fault edge, heartbeat).
		n := uint64(1)
		if drained {
			next := min(pump.NextAt(), deadlineC)
			if ft != nil {
				next = min(next, ft.nextAt(reqs))
			}
			if next > nowC {
				n = min((next-nowC-1)/quantum+1, uint64(maxJump))
			}
		}
		f.Advance(int(n))
	}

	res.Abandoned = res.Offered - res.Completed - res.Dropped - res.Failed
	res.ElapsedSeconds = f.NowSeconds() - startTime
	if res.ElapsedSeconds > 0 {
		res.Throughput = float64(res.Completed) / res.ElapsedSeconds
	}
	for m, adm := range adms {
		st := &res.PerMachine[m]
		st.Admitted = adm.Admitted
		st.Dropped = adm.Dropped
		st.Completed = adm.Completed
		st.PeakQueueDepth = adm.PeakQueueDepth
		st.PeakInFlight = adm.PeakInFlight
		st.Latency = adm.Latency
		st.AllocatedEnd = f.Rigs[m].AllocatedCores()
		res.QueueWait.Merge(&adm.QueueWait)
		res.Service.Merge(&adm.Service)
		f.Rigs[m].Engine.Drain()
	}
	return res
}
