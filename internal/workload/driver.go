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
	// QueriesPerClient is each client's stream length (default 1).
	QueriesPerClient int
	// SampleEvery, when positive, records timeline samples at this
	// virtual-time interval in seconds.
	SampleEvery float64
	// MaxSeconds bounds the phase (default 600 virtual seconds).
	MaxSeconds float64
}

// Run drives nClients streams to completion and returns the phase
// summary: the one-tenant closedLoop over the rig.
func (d *Driver) Run(nClients int, plan PlanFor) PhaseResult {
	r := d.Rig
	load := TenantLoad{Clients: nClients, QueriesPerClient: d.QueriesPerClient, Plan: plan}
	tenants := []closedTenant{{engine: r.Engine, allocated: r.AllocatedCores, load: load}}
	return closedLoop(r.Tick, r.Machine, r.Sched, tenants, d.SampleEvery, d.MaxSeconds).Tenants[0].PhaseResult
}

// RunSameQuery drives nClients clients each executing the same query
// plan-builder once per stream slot (the Fig 4/13 protocol: N concurrent
// users running Q6).
func (d *Driver) RunSameQuery(nClients int, build func(seed uint64) *db.Plan) PhaseResult {
	return d.Run(nClients, func(c, k int) *db.Plan {
		return build(uint64(c*1000 + k + 1))
	})
}
