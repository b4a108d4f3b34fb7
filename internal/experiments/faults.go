package experiments

import (
	"context"
	"fmt"

	"elasticore/internal/arrivals"
	"elasticore/internal/cluster"
	"elasticore/internal/faults"
	"elasticore/internal/metrics"
	"elasticore/internal/numa"
	"elasticore/internal/workload"
)

// faults.go hosts the failure experiments: the cluster tier driven
// through internal/faults' deterministic failure plans.
//
//   - fault-tolerance: one crash-and-recover window against three fleet
//     configurations — a static baseline with nowhere to fail over to,
//     an elastic fleet whose health monitor re-homes the dead machine's
//     shards, and a replicated fleet that also hedges and fails over —
//     with the latency and shed-rate timeline through the window.
//   - partial-degradation: machines that are impaired rather than dead —
//     a slow-core factor sweep and a lossy-link delay/drop sweep.

// msOrDash renders a latency quantile in milliseconds, or "-" when the
// histogram holds no samples: an all-shed window has no latency to
// report, and printing the empty histogram's zero quantiles would
// claim a 0.000 ms tail instead of admitting there was no service at
// all. Result tables render string cells verbatim in float columns.
func msOrDash(topo *numa.Topology, h *metrics.Histogram, q float64) any {
	if h.Count() == 0 {
		return "-"
	}
	return topo.CyclesToSeconds(h.Quantile(q)) * 1e3
}

// ftVariant is one fleet configuration of the fault-tolerance matchup.
type ftVariant struct {
	name     string
	mode     workload.Mode
	replicas int
	health   bool
	arbiter  bool
	hedge    bool
}

// ftPhaseStats accumulates request outcomes inside one phase of the
// crash timeline (pre-fault, fault, recovery), bucketed by resolve time.
type ftPhaseStats struct {
	ok, shed int
	lat      metrics.Histogram
}

// ftPhaseNames label the crash timeline's three phases.
var ftPhaseNames = [3]string{"pre-fault", "fault", "recovery"}

// ftWindows is how many fixed windows the shared timeline buckets request
// resolutions into.
const ftWindows = 12

// ftPlan is the operating point of the fault-tolerance matchup: the
// offered stream, the fault spec every variant replays and the crash
// window that frames the phases.
type ftPlan struct {
	rate, span, horizon float64
	total               int
	crashAt, crashFor   float64
	spec                string
	// winSpan is the timeline's extent: ftWindows windows cover it.
	winSpan float64
}

// planCrashWindow sizes the offered stream at moderate aggregate load —
// the fleet has headroom, so what the crash costs is attributable to the
// crash, not to pre-existing overload — and places the crash window.
//
// The default plan crashes machine 1 for the middle third of the arrival
// stream: long enough for detection (heartbeat gap) plus shard
// re-assignment to land and earn their keep, short enough that a
// recovery phase remains. A Config.Faults spec replaces the plan; its
// first fault's window then frames the phase boundaries.
func planCrashWindow(c Config, sat float64) ftPlan {
	p := ftPlan{rate: 0.7 * sat * float64(c.Machines), total: c.OpenArrivals * c.Machines, spec: c.Faults}
	p.span = float64(p.total) / p.rate
	p.winSpan = 1.4 * p.span
	p.crashAt, p.crashFor = 0.25*p.span, 0.35*p.span
	if plan, _ := faults.Parse(p.spec); plan.Empty() {
		victim := 0
		if c.Machines > 1 {
			victim = 1
		}
		p.spec = fmt.Sprintf("crash m%d @%.6fs for %.6fs", victim, p.crashAt, p.crashFor)
	} else {
		f0 := plan.Faults[0]
		p.crashAt = f0.At
		if f0.For > 0 {
			p.crashFor = f0.For
		} else {
			p.crashFor = p.winSpan - p.crashAt
		}
	}
	p.horizon = 1.3*float64(p.total)*(1/p.rate+1/sat) + p.crashFor + 0.05
	return p
}

// runFaultTolerance replays one offered stream through a crash-and-
// recover window against three fleet configurations and reports how
// much of the failure each one absorbs.
func runFaultTolerance(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	sat, err := calibrate(ctx, c, obs)
	if err != nil {
		return nil, err
	}
	p := planCrashWindow(c, sat)

	rep := min(max(c.Replicas, 2), c.Machines)
	variants := []ftVariant{
		{name: "static", mode: workload.ModeOS, replicas: 1},
		{name: "elastic", mode: workload.ModeDense, replicas: 1, health: true, arbiter: true},
		{name: "replicated", mode: workload.ModeDense, replicas: rep, health: true, arbiter: true, hedge: true},
	}

	summary := res.AddTable("fault_tolerance",
		colS("config"), colI("offered"), colI("completed"), colI("dropped"),
		colI("failed"), colI("retried"), colI("hedged"), colI("failover"),
		colI("reassign"), colF("tput(q/s)", 1))
	phases := res.AddTable("phases",
		colS("config"), colS("phase"), colI("resolved"), colI("ok"),
		colI("shed"), colF("shed_rate", 3), colF("p50(ms)", 3),
		colF("p99(ms)", 3), colF("p999(ms)", 3))

	// The shared timeline: request resolutions bucketed into fixed
	// windows, identical across variants because all three replay the
	// same arrival stream on the same clock. winCounts is indexed
	// [variant][window][ok|shed].
	var winCounts [3][ftWindows][2]int
	variantPhase := func(v ftVariant) string { return v.name }
	err = sweep(ctx, obs, variants, variantPhase, func(vi int, v ftVariant) error {
		return runFTVariant(c, p, v, res, summary, phases, &winCounts[vi])
	})
	if err != nil {
		return nil, err
	}

	tl := res.AddTable("timeline",
		colF("t(ms)", 1), colI("static_ok"), colI("static_shed"),
		colI("elastic_ok"), colI("elastic_shed"),
		colI("replicated_ok"), colI("replicated_shed"))
	for w := 0; w < ftWindows; w++ {
		tl.AddRow(p.winSpan/ftWindows*float64(w)*1e3,
			winCounts[0][w][0], winCounts[0][w][1],
			winCounts[1][w][0], winCounts[1][w][1],
			winCounts[2][w][0], winCounts[2][w][1])
	}
	res.AddMetric("saturation_tput_1", sat, "q/s")
	res.AddMetric("crash_at", p.crashAt, "s")
	res.AddMetric("crash_for", p.crashFor, "s")
	return res, nil
}

// ftFleet builds one variant's fleet: the plan's faults, the variant's
// replication, and its cluster arbiter and health monitor.
func ftFleet(c Config, p ftPlan, v ftVariant) (*cluster.Fleet, error) {
	cc := c
	cc.Faults = p.spec
	cc.Replicas = v.replicas
	f, err := newFleet(cc, c.Machines, v.mode)
	if err != nil {
		return nil, err
	}
	topo := f.Rigs[0].Machine.Topology()
	if v.arbiter {
		// A contended budget makes the elastic story visible: the
		// arbiter reclaims a dead machine's grant for the survivors.
		if _, err := cluster.NewClusterArbiter(cluster.ClusterArbiterConfig{
			Fleet:  f,
			Budget: c.Machines * topo.TotalCores() * 3 / 4,
		}); err != nil {
			return nil, err
		}
	}
	if v.health {
		if _, err := cluster.NewHealthMonitor(cluster.HealthConfig{
			Fleet:       f,
			BrownoutCap: 4 * openSessions(c),
		}); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// runFTVariant replays the plan's stream through one fleet configuration:
// it adds the variant's summary row, phase rows and metrics to res and
// counts its resolutions into the timeline windows win.
func runFTVariant(c Config, p ftPlan, v ftVariant, res *Result, summary, phases *Table, win *[ftWindows][2]int) error {
	f, err := ftFleet(c, p, v)
	if err != nil {
		return err
	}
	topo := f.Rigs[0].Machine.Topology()
	crashC := topo.SecondsToCycles(p.crashAt)
	recoverC := topo.SecondsToCycles(p.crashAt + p.crashFor)
	winC := topo.SecondsToCycles(p.winSpan / ftWindows)
	hedge := 0.0
	if v.hedge {
		hedge = 3e-3
	}
	var ph [3]ftPhaseStats
	coord := &cluster.Coordinator{
		Fleet:             f,
		Process:           arrivals.NewPoisson(p.rate, c.Seed+401),
		Keys:              uniformKeys(f.Sharder, c.Seed),
		MaxInFlight:       openSessions(c),
		QueueCap:          8 * openSessions(c),
		MaxArrivals:       p.total,
		MaxSeconds:        p.horizon,
		TimeoutSeconds:    6e-3,
		BackoffSeconds:    1.5e-3,
		MaxRetries:        4,
		HedgeAfterSeconds: hedge,
		OnOutcome: func(nowC, lat uint64, ok bool) {
			pi := 0
			switch {
			case nowC >= recoverC:
				pi = 2
			case nowC >= crashC:
				pi = 1
			}
			w := min(int(nowC/winC), ftWindows-1)
			if ok {
				ph[pi].ok++
				ph[pi].lat.Record(lat)
				win[w][0]++
			} else {
				ph[pi].shed++
				win[w][1]++
			}
		},
	}
	r := coord.Run()
	reassigned, recoveries := 0, 0
	if h := f.Health(); h != nil {
		reassigned, recoveries = h.Reassigned, h.Recoveries
	}
	summary.AddRow(v.name, r.Offered, r.Completed, r.Dropped, r.Failed,
		r.Retried, r.Hedged, r.Failovers, reassigned, r.Throughput)
	for pi, pn := range ftPhaseNames {
		s := &ph[pi]
		n := s.ok + s.shed
		shedRate := 0.0
		if n > 0 {
			shedRate = float64(s.shed) / float64(n)
		}
		phases.AddRow(v.name, pn, n, s.ok, s.shed, shedRate,
			msOrDash(topo, &s.lat, 0.50), msOrDash(topo, &s.lat, 0.99),
			msOrDash(topo, &s.lat, 0.999))
	}
	res.AddMetric("shed_fault_"+v.name, float64(ph[1].shed), "req")
	if ph[0].lat.Count() > 0 && ph[1].lat.Count() > 0 {
		pre := topo.CyclesToSeconds(ph[0].lat.Quantile(0.99))
		dur := topo.CyclesToSeconds(ph[1].lat.Quantile(0.99))
		if pre > 0 {
			res.AddMetric("p99_fault_over_pre_"+v.name, dur/pre, "x")
		}
	}
	if v.name == "replicated" {
		res.AddMetric("recoveries_replicated", float64(recoveries), "")
	}
	return nil
}

// runPartialDegradation sweeps machines that are impaired rather than
// dead: a slow-core factor sweep (one machine's cores cost more cycles)
// and a lossy-link sweep (one machine's requests pay delay and drops).
func runPartialDegradation(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	sat, err := calibrate(ctx, c, obs)
	if err != nil {
		return nil, err
	}
	slow := res.AddTable("slow_cores",
		colI("factor"), colI("offered"), colI("completed"), colI("shed"),
		colF("tput(q/s)", 1), colF("p50(ms)", 3), colF("p99(ms)", 3))
	factors := []int{1, 4, 16}
	slowPhase := func(factor int) string { return fmt.Sprintf("slow-x%d", factor) }
	err = sweep(ctx, obs, factors, slowPhase, func(_, factor int) error {
		spec := ""
		if factor > 1 {
			// Every core of machine 0 costs factor-x cycles; no timeout,
			// so the table shows the pure degradation (queueing on the
			// slow machine until its admission queue sheds).
			spec = fmt.Sprintf("slow m0 c* x%d @0s", factor)
		}
		r, topo, err := runDegraded(c, sat, spec, false)
		if err != nil {
			return err
		}
		slow.AddRow(factor, r.Offered, r.Completed, r.Dropped+r.Failed,
			r.Throughput, msOrDash(topo, &r.Latency, 0.50), msOrDash(topo, &r.Latency, 0.99))
		return nil
	})
	if err != nil {
		return nil, err
	}

	lossy := res.AddTable("lossy_link",
		colF("delay(ms)", 1), colF("drop", 2), colI("offered"), colI("completed"),
		colI("failed"), colI("retried"), colI("wire_drop"),
		colF("tput(q/s)", 1), colF("p99(ms)", 3))
	type linkPoint struct{ delayMs, drop float64 }
	points := []linkPoint{{0, 0}, {0.2, 0.1}, {0.5, 0.3}}
	linkPhase := func(pt linkPoint) string { return fmt.Sprintf("link+%.1fms/%.0f%%", pt.delayMs, pt.drop*100) }
	err = sweep(ctx, obs, points, linkPhase, func(_ int, pt linkPoint) error {
		spec := ""
		if pt.delayMs > 0 || pt.drop > 0 {
			spec = fmt.Sprintf("link m0 +%.1fms drop %.2f @0s", pt.delayMs, pt.drop)
		}
		// Timeout and retries on: a dropped message is invisible until
		// its attempt deadline expires, so recovery needs the clock.
		r, topo, err := runDegraded(c, sat, spec, true)
		if err != nil {
			return err
		}
		lossy.AddRow(pt.delayMs, pt.drop, r.Offered, r.Completed, r.Failed,
			r.Retried, r.WireDropped, r.Throughput, msOrDash(topo, &r.Latency, 0.99))
		return nil
	})
	if err != nil {
		return nil, err
	}

	addDegradationMetrics(res, slow, lossy)
	res.AddMetric("saturation_tput_1", sat, "q/s")
	return res, nil
}

// runDegraded replays partial-degradation's offered stream — 60 % of the
// fleet's calibrated saturation — through a dense fleet under spec;
// timeout turns the coordinator's attempt deadline and retries on.
func runDegraded(c Config, sat float64, spec string, timeout bool) (*cluster.Result, *numa.Topology, error) {
	rate := 0.6 * sat * float64(c.Machines)
	total := c.OpenArrivals * c.Machines
	cc := c
	cc.Faults = spec
	f, err := newFleet(cc, c.Machines, workload.ModeDense)
	if err != nil {
		return nil, nil, err
	}
	coord := &cluster.Coordinator{
		Fleet:       f,
		Process:     arrivals.NewPoisson(rate, c.Seed+501),
		Keys:        uniformKeys(f.Sharder, c.Seed),
		MaxInFlight: openSessions(c),
		QueueCap:    8 * openSessions(c),
		MaxArrivals: total,
		MaxSeconds:  1.3*float64(total)*(1/rate+1/sat) + 0.05,
	}
	if timeout {
		coord.TimeoutSeconds = 6e-3
		coord.BackoffSeconds = 1.5e-3
		coord.MaxRetries = 4
	}
	r := coord.Run()
	return &r, f.Rigs[0].Machine.Topology(), nil
}

// addDegradationMetrics summarizes the two sweeps: throughput at the
// mildest and harshest slow factor, p99 and retries on the clean and the
// lossiest link.
func addDegradationMetrics(res *Result, slow, lossy *Table) {
	if n := len(slow.Rows); n > 0 {
		tput := slow.Col("tput(q/s)")
		base, _ := slow.Float(0, tput)
		worst, _ := slow.Float(n-1, tput)
		res.AddMetric("tput_slow_x1", base, "q/s")
		res.AddMetric("tput_slow_max", worst, "q/s")
	}
	if n := len(lossy.Rows); n > 0 {
		p99 := lossy.Col("p99(ms)")
		clean, _ := lossy.Float(0, p99)
		worst, _ := lossy.Float(n-1, p99)
		retried, _ := lossy.Float(n-1, lossy.Col("retried"))
		res.AddMetric("p99_link_clean", clean, "ms")
		res.AddMetric("p99_link_lossy", worst, "ms")
		res.AddMetric("retried_link_lossy", retried, "req")
	}
}
