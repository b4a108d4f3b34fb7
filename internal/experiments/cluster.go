package experiments

import (
	"context"
	"fmt"
	"math"

	"elasticore/internal/arrivals"
	"elasticore/internal/cluster"
	"elasticore/internal/faults"
	"elasticore/internal/hashmix"
	"elasticore/internal/workload"
)

// cluster.go hosts the fleet experiments: the paper's single-machine
// mechanism scaled out behind internal/cluster's Coordinator.
//
//   - scale-out: one fixed offered stream against fleets of 1..Machines
//     machines sharing one sharded dataset — the speedup curve.
//   - shard-skew: Zipf-skewed shard heat at fixed fleet size — what
//     hash-partitioning costs when the keys stop being uniform.
//   - rebalance-cost: a hot shard that shifts machines mid-run under a
//     contended cluster core budget — what the second control tier pays
//     (migration latency per moved core) to follow the heat.

// scaleOutPoints returns the machine-count sweep: powers of two up to
// max, plus max itself when it is not a power of two.
func scaleOutPoints(max int) []int {
	var pts []int
	for m := 1; m <= max; m *= 2 {
		pts = append(pts, m)
	}
	if last := pts[len(pts)-1]; last != max {
		pts = append(pts, max)
	}
	return pts
}

// uniformKeys returns a deterministic uniform-over-shards key stream
// for a coordinator (the k-th request's routing key).
func uniformKeys(sh *cluster.Sharder, seed uint64) func(k int) uint64 {
	return func(k int) uint64 {
		shard := int(hashmix.Mix64(seed^uint64(k+1)) % uint64(sh.Shards()))
		return sh.KeyForShard(shard, seed+uint64(k))
	}
}

// zipfShards returns a deterministic Zipf sampler over shards: shard r
// carries weight 1/(r+1)^theta (shard 0 hottest), sampled by inverse
// CDF from SplitMix64. theta 0 is uniform.
func zipfShards(shards int, theta float64, seed uint64) func(k int) int {
	cdf := make([]float64, shards)
	sum := 0.0
	for r := 0; r < shards; r++ {
		sum += math.Pow(float64(r+1), -theta)
		cdf[r] = sum
	}
	return func(k int) int {
		u := float64(hashmix.Mix64(seed^uint64(k+1)*hashmix.Golden)) / float64(^uint64(0)) * sum
		for r, c := range cdf {
			if u <= c {
				return r
			}
		}
		return shards - 1
	}
}

// newFleet builds a fleet from the experiment config at a given machine
// count (the per-machine dataset is the owned share of the total SF).
// Config.Replicas and Config.Faults flow into every fleet built here, so
// any cluster experiment can run replicated or under a failure plan.
func newFleet(c Config, machines int, mode workload.Mode) (*cluster.Fleet, error) {
	topo, err := c.machineTopology(c.SF)
	if err != nil {
		return nil, err
	}
	plan, err := faults.Parse(c.Faults) // validated in withDefaults
	if err != nil {
		return nil, err
	}
	return cluster.NewFleet(cluster.Options{
		Machines: machines,
		Shards:   c.Shards,
		SF:       c.SF,
		Seed:     c.Seed,
		Mode:     mode,
		Topology: topo,
		Bus:      c.Bus,
		Replicas: c.Replicas,
		Faults:   plan,
		Workers:  c.Workers,
	})
}

// runScaleOut replays one fixed offered stream — rate and arrival count
// independent of fleet size — against growing fleets and reports the
// throughput speedup over one machine.
func runScaleOut(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	tbl := res.AddTable("scale_out",
		colI("machines"), colI("shards"), colI("offered"), colI("completed"),
		colI("dropped"), colF("tput(q/s)", 1), colF("speedup", 2),
		colF("p50(ms)", 3), colF("p99(ms)", 3))

	sat, err := calibrate(ctx, c, obs)
	if err != nil {
		return nil, err
	}
	// The offered load is fixed across the sweep at twice what the
	// largest fleet could serve if every machine ran at the one-machine
	// saturation rate: every point is saturated, so throughput measures
	// capacity and the curve is the speedup.
	rate := 2 * sat * float64(c.Machines)
	total := c.OpenArrivals * c.Machines
	horizon := 1.3 * float64(total) * (1/rate + 1/sat)

	points := scaleOutPoints(c.Machines)
	base := 0.0
	machinesPhase := func(m int) string { return fmt.Sprintf("machines=%d", m) }
	err = sweep(ctx, obs, points, machinesPhase, func(_, m int) error {
		f, err := newFleet(c, m, workload.ModeDense)
		if err != nil {
			return err
		}
		coord := &cluster.Coordinator{
			Fleet:       f,
			Process:     arrivals.NewPoisson(rate, c.Seed+101),
			Keys:        uniformKeys(f.Sharder, c.Seed),
			MaxInFlight: openSessions(c),
			QueueCap:    8 * openSessions(c),
			MaxArrivals: total,
			MaxSeconds:  horizon,
		}
		r := coord.Run()
		if base == 0 {
			base = r.Throughput
		}
		speedup := 0.0
		if base > 0 {
			speedup = r.Throughput / base
		}
		topo := f.Rigs[0].Machine.Topology()
		ms := func(cyc uint64) float64 { return topo.CyclesToSeconds(cyc) * 1e3 }
		tbl.AddRow(m, f.Sharder.Shards(), r.Offered, r.Completed, r.Dropped,
			r.Throughput, speedup, ms(r.Latency.P50()), ms(r.Latency.P99()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.AddMetric("saturation_tput_1", sat, "q/s")
	if n := len(tbl.Rows); n > 0 {
		s, _ := tbl.Float(n-1, tbl.Col("speedup"))
		res.AddMetric("speedup_max", s, "x")
	}
	return res, nil
}

// runShardSkew routes Zipf-skewed shard heat at fixed fleet size and
// reports the imbalance and its throughput/latency cost.
func runShardSkew(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	tbl := res.AddTable("shard_skew",
		colF("theta", 1), colI("offered"), colI("completed"), colI("dropped"),
		colF("tput(q/s)", 1), colF("p50(ms)", 3), colF("p99(ms)", 3),
		colF("imbalance", 2), colI("hottest"))

	sat, err := calibrate(ctx, c, obs)
	if err != nil {
		return nil, err
	}
	// Moderate aggregate load: a uniform key stream spreads it
	// comfortably, a skewed one overloads the hot shard's owner — the
	// imbalance, not the total rate, is what hurts.
	rate := 0.6 * sat * float64(c.Machines)
	total := c.OpenArrivals * c.Machines
	horizon := 1.3 * float64(total) * (1/rate + 1/sat)

	thetas := []float64{0, 1, 2}
	thetaPhase := func(theta float64) string { return fmt.Sprintf("theta=%.1f", theta) }
	err = sweep(ctx, obs, thetas, thetaPhase, func(_ int, theta float64) error {
		f, err := newFleet(c, c.Machines, workload.ModeDense)
		if err != nil {
			return err
		}
		sh := f.Sharder
		pick := zipfShards(sh.Shards(), theta, c.Seed)
		coord := &cluster.Coordinator{
			Fleet:   f,
			Process: arrivals.NewPoisson(rate, c.Seed+211),
			Keys: func(k int) uint64 {
				return sh.KeyForShard(pick(k), c.Seed+uint64(k))
			},
			MaxInFlight: openSessions(c),
			QueueCap:    8 * openSessions(c),
			MaxArrivals: total,
			MaxSeconds:  horizon,
		}
		r := coord.Run()
		routedMax, routedSum, hottest := 0, 0, 0
		for m, st := range r.PerMachine {
			routedSum += st.Routed
			if st.Routed > routedMax {
				routedMax, hottest = st.Routed, m
			}
		}
		imbalance := 0.0
		if routedSum > 0 {
			imbalance = float64(routedMax) * float64(f.Machines()) / float64(routedSum)
		}
		topo := f.Rigs[0].Machine.Topology()
		ms := func(cyc uint64) float64 { return topo.CyclesToSeconds(cyc) * 1e3 }
		tbl.AddRow(theta, r.Offered, r.Completed, r.Dropped, r.Throughput,
			ms(r.Latency.P50()), ms(r.Latency.P99()), imbalance, hottest)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.AddMetric("saturation_tput_1", sat, "q/s")
	if n := len(tbl.Rows); n > 0 {
		imb := tbl.Col("imbalance")
		uni, _ := tbl.Float(0, imb)
		worst, _ := tbl.Float(n-1, imb)
		res.AddMetric("imbalance_uniform", uni, "x")
		res.AddMetric("imbalance_max_skew", worst, "x")
	}
	return res, nil
}

// runRebalanceCost shifts a hot shard between machines mid-run under a
// contended cluster core budget and sweeps the migration latency the
// arbiter charges per moved core.
func runRebalanceCost(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	tbl := res.AddTable("rebalance_cost",
		colF("migrate(ms)", 1), colI("moved"), colF("charged(Mcyc)", 2),
		colI("rebalances"), colI("offered"), colI("completed"), colI("dropped"),
		colF("tput(q/s)", 1), colF("p99(ms)", 3))

	latencies := []float64{0.1e-3, 1e-3, 10e-3}
	total := c.OpenArrivals * c.Machines
	latPhase := func(lat float64) string { return fmt.Sprintf("migrate=%.1fms", lat*1e3) }
	err := sweep(ctx, obs, latencies, latPhase, func(_ int, lat float64) error {
		f, err := newFleet(c, c.Machines, workload.ModeDense)
		if err != nil {
			return err
		}
		topo := f.Rigs[0].Machine.Topology()
		// A budget of half the physical cores makes machines contend:
		// growing one means shrinking another, so following the heat
		// requires actual migration.
		budget := c.Machines * topo.TotalCores() / 2
		ca, err := cluster.NewClusterArbiter(cluster.ClusterArbiterConfig{
			Fleet:          f,
			Budget:         budget,
			MigrateLatency: topo.SecondsToCycles(lat),
		})
		if err != nil {
			return err
		}
		sh := f.Sharder
		// The first half of the stream hammers machine 0's first
		// shard, the second half the last machine's — the heat moves,
		// and the arbiter must move cores after it.
		hotA, _ := sh.ShardsOf(0)
		hotB, _ := sh.ShardsOf(f.Machines() - 1)
		coord := &cluster.Coordinator{
			Fleet: f,
			// Rate chosen against sessions, not saturation: with 2
			// sessions per machine the hot machine's queue builds
			// whatever the service rate, driving the backlog signal.
			Process: arrivals.NewPoisson(5000, c.Seed+307),
			Keys: func(k int) uint64 {
				hot := hotA
				if k >= total/2 {
					hot = hotB
				}
				return sh.KeyForShard(hot, c.Seed+uint64(k))
			},
			MaxInFlight: 2,
			MaxArrivals: total,
		}
		r := coord.Run()
		ms := func(cyc uint64) float64 { return topo.CyclesToSeconds(cyc) * 1e3 }
		tbl.AddRow(lat*1e3, ca.MovedCores, float64(ca.ChargedCycles)/1e6,
			len(ca.Events()), r.Offered, r.Completed, r.Dropped,
			r.Throughput, ms(r.Latency.P99()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n := len(tbl.Rows); n > 0 {
		tput := tbl.Col("tput(q/s)")
		cheap, _ := tbl.Float(0, tput)
		dear, _ := tbl.Float(n-1, tput)
		res.AddMetric("tput_cheapest_migration", cheap, "q/s")
		res.AddMetric("tput_dearest_migration", dear, "q/s")
	}
	return res, nil
}
