package workload

import (
	"elasticore/internal/db"
	"elasticore/internal/tpch"
)

// phases.go implements the two Section V-C workloads.
//
// Stable phases: "each phase is the concurrent execution of each query at
// a time by 256 users" — query 1 by all users, then query 2, and so on.
//
// Mixed phases: "256 concurrent users continuously running a random query
// out of the 22 queries" — reproduced per query for the split-per-query
// figure: each phase runs one query number with per-client random
// parameter seeds, yielding per-query latency and HT/IMC ratio.

// QueryPhase is the outcome of one query's phase.
type QueryPhase struct {
	QueryNumber int
	PhaseResult
}

// HTIMCRatio returns the phase's interconnect-to-memory traffic ratio.
func (p QueryPhase) HTIMCRatio() float64 { return p.Window.HTIMCRatio() }

// StablePhases runs the 22 queries phase by phase with nClients concurrent
// users each, sampling timelines when sampleEvery > 0.
func StablePhases(r *Rig, nClients int, sampleEvery float64) []QueryPhase {
	return queryPhases(r, nClients, sampleEvery, func(qn, c int) uint64 {
		return r.Opts.Seed*7919 + uint64(qn)*131 + uint64(c)
	})
}

// MixedPhases runs each query number as a phase of nClients users with
// randomized per-client parameters (the per-query split of the mixed
// workload, Figure 19).
func MixedPhases(r *Rig, nClients int) []QueryPhase {
	return queryPhases(r, nClients, 0, func(qn, c int) uint64 {
		return r.Opts.Seed ^ (uint64(qn) << 32) ^ uint64(c*2654435761)
	})
}

// queryPhases runs one phase per query number, in which each of nClients
// users runs that query once with the parameter seed seed(qn, client).
func queryPhases(r *Rig, nClients int, sampleEvery float64, seed func(qn, c int) uint64) []QueryPhase {
	out := make([]QueryPhase, 0, tpch.QueryCount)
	for qn := 1; qn <= tpch.QueryCount; qn++ {
		d := &Driver{Rig: r, QueriesPerClient: 1, SampleEvery: sampleEvery}
		res := d.Run(nClients, func(c, k int) *db.Plan { return tpch.Build(qn, seed(qn, c)) })
		out = append(out, QueryPhase{QueryNumber: qn, PhaseResult: res})
	}
	return out
}

// RandomStream drives a true mixed stream: every client runs length
// queries drawn uniformly from the 22 with a per-client deterministic
// sequence (used by the quickstart example and ablations).
func RandomStream(r *Rig, nClients, length int) PhaseResult {
	d := &Driver{Rig: r, QueriesPerClient: length}
	return d.Run(nClients, func(c, k int) *db.Plan {
		x := uint64(c)*0x9E3779B97F4A7C15 + uint64(k)*0xBF58476D1CE4E5B9 + r.Opts.Seed
		x ^= x >> 29
		qn := int(x%tpch.QueryCount) + 1
		return tpch.Build(qn, x)
	})
}
