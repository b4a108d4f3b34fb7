package workload

import (
	"elasticore/internal/db"
	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// PlanFor supplies the k-th query of client c (both 0-based). Returning
// nil ends the client's stream early.
type PlanFor func(client, k int) *db.Plan

// QueryDone observes the finished k-th query of client c before the
// driver releases it — the query's scalars are still readable, so
// callers can attribute results per query class (the htap-mix experiment
// splits lookups from scans this way).
type QueryDone func(client, k int, q *db.Query)

// PhaseResult summarizes one driven phase.
type PhaseResult struct {
	// ElapsedSeconds is the virtual wall time of the phase.
	ElapsedSeconds float64
	// Completed counts finished queries.
	Completed int
	// Throughput is queries per virtual second.
	Throughput float64
	// MeanLatencySeconds averages per-query latency.
	MeanLatencySeconds float64
	// Window is the counter delta over the phase.
	Window numa.Counters
	// Sched is the scheduler stats delta over the phase.
	Sched sched.Stats
	// Samples are periodic sub-window snapshots (timeline plots); empty
	// unless SampleEvery was set.
	Samples []Sample
}

// Sample is one timeline point: the counter window since the previous
// sample plus the instantaneous allocation.
type Sample struct {
	AtSeconds float64
	Window    numa.Counters
	Allocated int
}

// stream tracks one client's in-flight query and stream position.
type stream struct {
	cur  *db.Query
	next int
}

// streamSet drives a set of concurrent client streams against one
// engine, submitting each client's next query as soon as the previous
// one finishes — the paper's execution protocol. It is shared by the
// single-tenant Driver and the multi-tenant MultiRig.Run.
type streamSet struct {
	engine  *db.Engine
	topo    *numa.Topology
	plan    PlanFor
	length  int
	clients []stream
	// onDone, when non-nil, observes each finished query (with its stream
	// coordinates) before it is released back to the engine.
	onDone QueryDone

	// Completed counts finished queries; LatencySum accumulates their
	// latencies in seconds.
	Completed  int
	LatencySum float64
}

// newStreamSet primes every client with its first query. A nil plan (or
// a nil first query) leaves the client with nothing to run.
func newStreamSet(engine *db.Engine, topo *numa.Topology, nClients, length int, plan PlanFor) *streamSet {
	s := &streamSet{
		engine:  engine,
		topo:    topo,
		plan:    plan,
		length:  length,
		clients: make([]stream, nClients),
	}
	for c := range s.clients {
		if plan != nil {
			if p := plan(c, 0); p != nil {
				s.clients[c].cur = engine.Submit(p)
				s.clients[c].next = 1
				continue
			}
		}
		s.clients[c].next = length // nothing to run
	}
	return s
}

// Active reports whether any stream still has queries in flight or left
// to submit.
func (s *streamSet) Active() bool {
	for c := range s.clients {
		if s.clients[c].cur != nil || s.clients[c].next < s.length {
			return true
		}
	}
	return false
}

// Pump collects finished queries and submits each idle client's next one.
// Finished queries are released back to the engine immediately so their
// pooled buffers feed the next submissions.
func (s *streamSet) Pump() {
	for c := range s.clients {
		cs := &s.clients[c]
		if cs.cur != nil && cs.cur.Done() {
			s.Completed++
			s.LatencySum += s.topo.CyclesToSeconds(cs.cur.ElapsedCycles())
			if s.onDone != nil {
				s.onDone(c, cs.next-1, cs.cur)
			}
			s.engine.Release(cs.cur)
			cs.cur = nil
		}
		if cs.cur == nil && cs.next < s.length {
			if p := s.plan(c, cs.next); p != nil {
				cs.cur = s.engine.Submit(p)
			}
			cs.next++
		}
	}
}

// schedDelta returns the scheduler counters accumulated since start.
func schedDelta(start, end sched.Stats) sched.Stats {
	return sched.Stats{
		Spawned:             end.Spawned - start.Spawned,
		StolenTasks:         end.StolenTasks - start.StolenTasks,
		Migrations:          end.Migrations - start.Migrations,
		CrossNodeMigrations: end.CrossNodeMigrations - start.CrossNodeMigrations,
		TicksRun:            end.TicksRun - start.TicksRun,
		Wakeups:             end.Wakeups - start.Wakeups,
		SpuriousWakeups:     end.SpuriousWakeups - start.SpuriousWakeups,
	}
}

// Driver runs concurrent client streams against a rig.
type Driver struct {
	Rig *Rig
	// QueriesPerClient is each client's stream length.
	QueriesPerClient int
	// SampleEvery, when positive, records timeline samples at this
	// virtual-time interval in seconds.
	SampleEvery float64
	// MaxSeconds bounds the phase (default 600 virtual seconds).
	MaxSeconds float64
}

// Run drives nClients streams to completion and returns the phase
// summary.
func (d *Driver) Run(nClients int, plan PlanFor) PhaseResult {
	if d.QueriesPerClient == 0 {
		d.QueriesPerClient = 1
	}
	if d.MaxSeconds == 0 {
		d.MaxSeconds = 600
	}
	r := d.Rig
	ss := newStreamSet(r.Engine, r.Machine.Topology(), nClients, d.QueriesPerClient, plan)

	startSnap := r.Machine.Snapshot()
	startStats := r.Sched.Stats()
	startTime := r.Machine.NowSeconds()
	deadline := startTime + d.MaxSeconds

	var res PhaseResult
	lastSample := startTime
	sampleSnap := startSnap

	for ss.Active() && r.Machine.NowSeconds() < deadline {
		r.Tick()
		ss.Pump()
		if d.SampleEvery > 0 && r.Machine.NowSeconds()-lastSample >= d.SampleEvery {
			snap := r.Machine.Snapshot()
			res.Samples = append(res.Samples, Sample{
				AtSeconds: r.Machine.NowSeconds() - startTime,
				Window:    snap.Sub(sampleSnap),
				Allocated: r.AllocatedCores(),
			})
			sampleSnap = snap
			lastSample = r.Machine.NowSeconds()
		}
	}

	endSnap := r.Machine.Snapshot()
	res.Completed = ss.Completed
	res.ElapsedSeconds = r.Machine.NowSeconds() - startTime
	res.Window = endSnap.Sub(startSnap)
	res.Sched = schedDelta(startStats, r.Sched.Stats())
	if res.ElapsedSeconds > 0 {
		res.Throughput = float64(res.Completed) / res.ElapsedSeconds
	}
	if res.Completed > 0 {
		res.MeanLatencySeconds = ss.LatencySum / float64(res.Completed)
	}
	r.Engine.Drain()
	return res
}

// RunSameQuery drives nClients clients each executing the same query
// plan-builder once per stream slot (the Fig 4/13 protocol: N concurrent
// users running Q6).
func (d *Driver) RunSameQuery(nClients int, build func(seed uint64) *db.Plan) PhaseResult {
	return d.Run(nClients, func(c, k int) *db.Plan {
		return build(uint64(c*1000 + k + 1))
	})
}
