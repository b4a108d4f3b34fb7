// Faulttolerance: crash a machine out of a replicated fleet and watch
// the cluster survive it. A deterministic fault plan takes machine 1
// down mid-run; the coordinator's timeouts, retries, hedged requests
// and replica failover keep keyed traffic completing, the health
// monitor declares the machine dead from its heartbeat silence and
// re-homes its shards onto the surviving replicas, and when the crash
// window closes the recovered machine gets its shards back. Every run
// is bit-identical: faults are scheduled on the simulated clock, not
// sampled from it.
package main

import (
	"fmt"
	"log"

	"elasticore"
)

func main() {
	// Crash machine 1 from t=20ms to t=80ms. Plans parse from the same
	// grammar `elasticbench run -faults` accepts; slow cores and lossy
	// links compose into the same schedule.
	plan, err := elasticore.ParseFaultPlan("crash m1 @0.02s for 0.06s")
	if err != nil {
		log.Fatal(err)
	}

	fleet, err := elasticore.NewFleet(elasticore.FleetOptions{
		Machines: 4,
		Shards:   8,
		SF:       0.004,
		Seed:     7,
		Mode:     elasticore.ModeAdaptive,
		Replicas: 2, // every shard lives on its primary plus one successor
		Faults:   plan,
	})
	if err != nil {
		log.Fatal(err)
	}
	topo := fleet.Rigs[0].Machine.Topology()

	// The health monitor turns heartbeat silence into death verdicts and
	// shard transfers; each transfer pays an explicit latency before the
	// surviving replica becomes the shard's primary.
	health, err := elasticore.NewHealthMonitor(elasticore.HealthConfig{Fleet: fleet})
	if err != nil {
		log.Fatal(err)
	}

	sh := fleet.Sharder
	coord := &elasticore.Coordinator{
		Fleet:   fleet,
		Process: elasticore.PoissonArrivals(1200, 42),
		Keys: func(k int) uint64 {
			return sh.KeyForShard(k%sh.Shards(), uint64(k))
		},
		MaxInFlight:       8,
		MaxArrivals:       320,
		MaxSeconds:        10,
		TimeoutSeconds:    10e-3, // an attempt unanswered for 10ms is retried
		BackoffSeconds:    2e-3,  // retry delay, doubled per attempt (capped)
		MaxRetries:        4,
		HedgeAfterSeconds: 5e-3, // duplicate slow keyed requests to a replica
	}
	res := coord.Run()

	ms := func(cycles uint64) float64 { return topo.CyclesToSeconds(cycles) * 1e3 }
	fmt.Printf("offered %d: completed %d, dropped %d, failed %d, abandoned %d (%.1f q/s)\n",
		res.Offered, res.Completed, res.Dropped, res.Failed, res.Abandoned, res.Throughput)
	fmt.Printf("latency p50 %.2fms  p99 %.2fms\n", ms(res.Latency.P50()), ms(res.Latency.P99()))
	fmt.Printf("fault tolerance: %d retries, %d hedges, %d failovers, %d wire drops\n",
		res.Retried, res.Hedged, res.Failovers, res.WireDropped)
	fmt.Printf("health: %d deaths, %d recoveries, %d shard moves (%.2f Mcycles of transfer)\n",
		health.Deaths, health.Recoveries, health.Reassigned, float64(health.TransferCycles)/1e6)

	fmt.Println("\nshard placement after the run (primaries back home):")
	for shard := 0; shard < sh.Shards(); shard++ {
		fmt.Printf("  shard %d: home m%d, owner m%d\n", shard, sh.Home(shard), sh.Owner(shard))
	}
}
