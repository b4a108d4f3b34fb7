package experiments

import (
	"context"
	"fmt"

	"elasticore/internal/arrivals"
	"elasticore/internal/elastic"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// openloop.go hosts the open-loop traffic experiments. The paper's
// protocol is closed-loop (each client waits for its previous query), so
// the offered load can never exceed capacity; these scenarios instead
// replay independent arrival streams (internal/arrivals) through
// workload.OpenDriver, making queueing, load shedding and tail latency
// measurable:
//
//   - latency-load: throughput and latency percentiles across an
//     offered-load sweep from well under to well over saturation — the
//     classic open-loop hockey-stick curve.
//   - burst-response: core allocation and p99 timelines around an MMPP
//     burst, comparing a static all-cores baseline against the elastic
//     mechanism with and without the admission-queue pressure signal.

// openSessions is the server-session count (concurrent queries) used by
// the open-loop experiments; the admission queue bounds at 8x that.
func openSessions(c Config) int { return c.Clients }

// calibrate is the "calibrate" phase the open-loop and cluster
// experiments open with: it measures the rig's closed-loop saturation
// throughput. The offered-load sweep and the burst rates are expressed
// relative to it, so the experiments keep their operating points across
// scale factors.
func calibrate(ctx context.Context, c Config, obs Observer) (sat float64, err error) {
	err = sweep(ctx, obs, []string{"calibrate"}, nil, func(int, string) error {
		r, err := newRig(c, workload.ModeOS, nil)
		if err != nil {
			return err
		}
		d := &workload.Driver{Rig: r, QueriesPerClient: 3}
		sat = d.RunSameQuery(openSessions(c), tpch.BuildQ6).Throughput
		if sat <= 0 {
			return fmt.Errorf("experiments: calibration produced zero throughput")
		}
		return nil
	})
	return sat, err
}

// loadProcess builds the configured arrival-process family around a mean
// rate. The mmpp and diurnal variants keep the same long-run mean as the
// plain Poisson stream, so the sweep's load axis stays comparable.
func loadProcess(kind string, rate, horizon float64, seed uint64) arrivals.Process {
	switch kind {
	case "mmpp":
		// Equal mean dwells at 0.5x and 1.5x the target rate average out
		// to the target.
		return arrivals.NewMMPP(0.5*rate, 1.5*rate, 10/rate, 10/rate, seed)
	case "diurnal":
		return arrivals.NewDiurnal(rate, 0.6, horizon/2, seed)
	default:
		return arrivals.NewPoisson(rate, seed)
	}
}

// runLatencyLoad sweeps offered load across the saturation point.
func runLatencyLoad(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	tl := res.AddTable("latency_load",
		colF("load", 2), colF("rate(q/s)", 1), colI("offered"), colI("admitted"),
		colI("dropped"), colI("completed"), colF("tput(q/s)", 1),
		colF("p50(ms)", 3), colF("p90(ms)", 3), colF("p99(ms)", 3),
		colF("max(ms)", 3), colF("wait p99(ms)", 3))

	sat, err := calibrate(ctx, c, obs)
	if err != nil {
		return nil, err
	}

	loadPhase := func(load float64) string { return fmt.Sprintf("load=%.2f (%s)", load, c.Arrival) }
	err = sweep(ctx, obs, c.Loads, loadPhase, func(i int, load float64) error {
		rate := load * sat
		// Horizon covers offering every arrival plus draining the whole
		// backlog at the saturation rate: a deadline tight enough to cut
		// off the deepest-queued queries would censor exactly the tail the
		// sweep exists to measure, inverting the latency curve past
		// saturation. The run ends early once everything drains.
		horizon := 1.2 * float64(c.OpenArrivals) * (1/rate + 1/sat)
		r, err := newRig(c, workload.ModeOS, nil)
		if err != nil {
			return err
		}
		d := &workload.OpenDriver{
			Rig:         r,
			Process:     loadProcess(c.Arrival, rate, horizon, c.Seed+uint64(i)*7919),
			MaxInFlight: openSessions(c),
			QueueCap:    8 * openSessions(c),
			MaxArrivals: c.OpenArrivals,
			MaxSeconds:  horizon,
		}
		or := d.RunSameQuery(tpch.BuildQ6)
		topo := r.Machine.Topology()
		ms := func(cyc uint64) float64 { return topo.CyclesToSeconds(cyc) * 1e3 }
		tl.AddRow(load, rate, or.Offered, or.Admitted, or.Dropped, or.Completed,
			or.Throughput, ms(or.Latency.P50()), ms(or.Latency.P90()),
			ms(or.Latency.P99()), ms(or.Latency.Max()), ms(or.QueueWait.P99()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.AddMetric("saturation_tput", sat, "q/s")
	// The tail-divergence signature: at the lightest load p99 sits within
	// a bucket or two of p50; past the saturation knee queueing stretches
	// the tail, so the absolute p99-p50 gap grows by orders of magnitude.
	if n := len(tl.Rows); n > 0 {
		c50, c99 := tl.Col("p50(ms)"), tl.Col("p99(ms)")
		firstP50, _ := tl.Float(0, c50)
		firstP99, _ := tl.Float(0, c99)
		res.AddMetric("p99_p50_gap_min_load", firstP99-firstP50, "ms")
		peak := 0.0
		for i := 0; i < n; i++ {
			p50, _ := tl.Float(i, c50)
			p99, _ := tl.Float(i, c99)
			if p99-p50 > peak {
				peak = p99 - p50
			}
		}
		res.AddMetric("p99_p50_gap_peak", peak, "ms")
	}
	return res, nil
}

// burstConfig is one burst-response contender.
type burstConfig struct {
	name            string
	mode            workload.Mode
	strategy        elastic.Strategy
	disablePressure bool
}

// runBurstResponse replays one MMPP stream under three allocation
// policies and records allocation/latency timelines around the bursts.
func runBurstResponse(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	timeline := res.AddTable("timeline",
		colS("config"), colF("t(s)", 4), colI("queue"), colI("inflight"),
		colI("cores"), colI("done"), colF("p99(ms)", 3))
	summary := res.AddTable("summary",
		colS("config"), colI("offered"), colI("completed"), colI("dropped"),
		colF("tput(q/s)", 1), colF("p50(ms)", 3), colF("p99(ms)", 3),
		colF("wait p99(ms)", 3), colI("peak queue"), colI("peak cores"))

	sat, err := calibrate(ctx, c, obs)
	if err != nil {
		return nil, err
	}

	// One quiet/burst cycle spans ~50 mean service times: long stretches
	// at 30% of capacity punctuated by 1.8x overload episodes. The
	// horizon allows offering every arrival (long-run MMPP rate ~0.9x
	// saturation) plus a full drain, so no config's tail is censored and
	// a slow-to-react policy pays in elapsed time, not in unmeasured
	// queries.
	arrivalsTotal := 2 * c.OpenArrivals
	horizon := 1.3*float64(arrivalsTotal)/(0.9*sat) + 1.5*float64(arrivalsTotal)/sat
	process := func() arrivals.Process {
		return arrivals.NewMMPP(0.3*sat, 1.8*sat, 30/sat, 20/sat, c.Seed)
	}

	// The elastic pair runs the HT/IMC strategy: its reading tracks
	// NUMA-friendliness, not demand, so without the admission-queue
	// pressure signal a burst can back up the queue while the counters
	// report nothing wrong — exactly the gap the signal closes. (The
	// CPU-load strategy saturates its reading the moment any backlog
	// exists, masking the A/B.)
	configs := []burstConfig{
		{"static", workload.ModeOS, nil, false},
		{"elastic", workload.ModeAdaptive, elastic.HTIMCStrategy{}, false},
		{"elastic-nopressure", workload.ModeAdaptive, elastic.HTIMCStrategy{}, true},
	}
	p99ByConfig := map[string]float64{}
	configPhase := func(bc burstConfig) string { return "config=" + bc.name }
	err = sweep(ctx, obs, configs, configPhase, func(_ int, bc burstConfig) error {
		r, err := newRig(c, bc.mode, bc.strategy)
		if err != nil {
			return err
		}
		d := &workload.OpenDriver{
			Rig:            r,
			Process:        process(),
			MaxInFlight:    openSessions(c),
			QueueCap:       8 * openSessions(c),
			MaxArrivals:    arrivalsTotal,
			MaxSeconds:     horizon,
			SampleEvery:    horizon / 48,
			DisableBacklog: bc.disablePressure,
		}
		or := d.RunSameQuery(tpch.BuildQ6)
		topo := r.Machine.Topology()
		ms := func(cyc uint64) float64 { return topo.CyclesToSeconds(cyc) * 1e3 }
		for _, s := range or.Samples {
			timeline.AddRow(bc.name, s.AtSeconds, s.QueueDepth, s.InFlight,
				s.Allocated, s.Completed, ms(s.P99Cycles))
		}
		peakCores := 0
		for _, s := range or.Samples {
			if s.Allocated > peakCores {
				peakCores = s.Allocated
			}
		}
		summary.AddRow(bc.name, or.Offered, or.Completed, or.Dropped,
			or.Throughput, ms(or.Latency.P50()), ms(or.Latency.P99()),
			ms(or.QueueWait.P99()), or.PeakQueueDepth, peakCores)
		p99ByConfig[bc.name] = ms(or.Latency.P99())
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.AddMetric("saturation_tput", sat, "q/s")
	res.AddMetric("static_p99_ms", p99ByConfig["static"], "ms")
	res.AddMetric("elastic_p99_ms", p99ByConfig["elastic"], "ms")
	res.AddMetric("elastic_nopressure_p99_ms", p99ByConfig["elastic-nopressure"], "ms")
	return res, nil
}
