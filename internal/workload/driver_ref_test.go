package workload

import (
	"fmt"
	"reflect"
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/elastic"
	"elasticore/internal/numa"
	"elasticore/internal/tpch"
)

// driver_ref_test.go keeps Driver.Run as it was before it became the
// one-tenant closedLoop — its own per-quantum loop over a set of client
// streams — as the oracle the shared loop must be indistinguishable from.

// refStreams is the client-stream set the old Driver.Run pumped.
type refStreams struct {
	engine     *db.Engine
	topo       *numa.Topology
	plan       PlanFor
	length     int
	clients    []stream
	onDone     QueryDone
	Completed  int
	LatencySum float64
}

// newRefStreams primes every client with its first query. A nil plan (or
// a nil first query) leaves the client with nothing to run.
func newRefStreams(engine *db.Engine, topo *numa.Topology, nClients, length int, plan PlanFor) *refStreams {
	s := &refStreams{
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
func (s *refStreams) Active() bool {
	for c := range s.clients {
		if s.clients[c].cur != nil || s.clients[c].next < s.length {
			return true
		}
	}
	return false
}

// Pump collects finished queries and submits each idle client's next one.
func (s *refStreams) Pump() {
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

// refDriverRun is Driver.Run before closedLoop: one Rig.Tick, one pump and
// one float-seconds sample test per quantum.
func refDriverRun(d *Driver, nClients int, plan PlanFor) PhaseResult {
	if d.QueriesPerClient == 0 {
		d.QueriesPerClient = 1
	}
	if d.MaxSeconds == 0 {
		d.MaxSeconds = 600
	}
	r := d.Rig
	ss := newRefStreams(r.Engine, r.Machine.Topology(), nClients, d.QueriesPerClient, plan)

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

// closedObservables is everything a closed phase leaves behind.
type closedObservables struct {
	Result      PhaseResult
	Transitions []elastic.TransitionEvent
	Machine     numa.Counters
	// Submitted counts the plans the streams asked for.
	Submitted int
}

// TestDriverMatchesRefLoop: Driver.Run, the one-tenant closedLoop, matches
// refDriverRun in the phase result (samples, counter window and scheduler
// stats included), the mechanism's transitions and the final machine
// counters — in every mode, for one and three queries a client, with and
// without timeline samples, and with a deadline that cuts streams while
// queries are in flight.
func TestDriverMatchesRefLoop(t *testing.T) {
	quantum := numa.Opteron8387().SecondsToCycles(0.2e-3)
	run := func(mode Mode, d Driver, loop func(*Driver, int, PlanFor) PhaseResult) closedObservables {
		r := mustRig(t, Options{Mode: mode, Seed: 3})
		d.Rig = r
		submitted := 0
		res := loop(&d, 6, func(c, k int) *db.Plan {
			submitted++
			x := uint64(c)*2654435761 + uint64(k)*40503 + 1
			return tpch.Build(int(x%tpch.QueryCount)+1, x)
		})
		var events []elastic.TransitionEvent
		if r.Mech != nil {
			events = r.Mech.Events()
		}
		return closedObservables{Result: res, Transitions: events, Machine: r.Machine.Snapshot(), Submitted: submitted}
	}
	// 7.4 quanta puts sample boundaries between quantum edges, 5 quanta
	// on them, where the loop's >= decides.
	quantumSeconds := numa.Opteron8387().CyclesToSeconds(quantum)
	for _, mode := range AllModes {
		for _, queries := range []int{1, 3} {
			for _, every := range []float64{0, 7.4 * quantumSeconds, 5 * quantumSeconds} {
				d := Driver{QueriesPerClient: queries, SampleEvery: every}
				full := run(mode, d, refDriverRun)
				// The cut falls at 60 % of the uncut phase, off the quantum
				// grid: streams are still mid-query when the deadline hits.
				for _, maxSeconds := range []float64{0, 0.6 * full.Result.ElapsedSeconds} {
					d.MaxSeconds = maxSeconds
					label := fmt.Sprintf("%v queries=%d sample=%v max=%v", mode, queries, every, maxSeconds)
					want := full
					if maxSeconds > 0 {
						want = run(mode, d, refDriverRun)
					}
					got := run(mode, d, (*Driver).Run)
					if (maxSeconds > 0) == (want.Result.Completed == 6*queries) {
						t.Fatalf("%s: the reference completed %d of %d queries", label, want.Result.Completed, 6*queries)
					}
					if (every > 0) != (len(want.Result.Samples) > 0) {
						t.Fatalf("%s: the reference recorded %d samples", label, len(want.Result.Samples))
					}
					if !reflect.DeepEqual(got.Result, want.Result) {
						t.Fatalf("%s: results diverged: completed %d/%d elapsed %v/%v samples %d/%d sched %+v/%+v", label,
							got.Result.Completed, want.Result.Completed, got.Result.ElapsedSeconds, want.Result.ElapsedSeconds,
							len(got.Result.Samples), len(want.Result.Samples), got.Result.Sched, want.Result.Sched)
					}
					if !reflect.DeepEqual(got.Transitions, want.Transitions) {
						t.Fatalf("%s: %d transitions, want %d", label, len(got.Transitions), len(want.Transitions))
					}
					if !reflect.DeepEqual(got.Machine, want.Machine) || got.Submitted != want.Submitted {
						t.Fatalf("%s: machine counters or submissions (%d vs %d) diverged", label, got.Submitted, want.Submitted)
					}
				}
			}
		}
	}
}
