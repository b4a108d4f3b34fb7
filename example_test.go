package elasticore_test

// example_test.go gives every root re-export a runnable, output-checked
// godoc example — the quickstart programs under examples/ show complete
// applications, but godoc readers see these. All examples run on the
// deterministic simulator, so the expected outputs are exact.

import (
	"context"
	"fmt"
	"log"

	"elasticore"
)

// ExampleLookupExperiment looks up a catalogued experiment and filters
// the catalogue by tag — the surface elasticbench's list/run commands sit
// on.
func ExampleLookupExperiment() {
	e, ok := elasticore.LookupExperiment("topology-sweep")
	if !ok {
		log.Fatal("not catalogued")
	}
	fmt.Println(e.Name, e.Tags)
	for _, exp := range elasticore.ExperimentsWithTag("tenancy") {
		fmt.Println("tenancy:", exp.Name)
	}
	// Output:
	// topology-sweep [topology numa elastic]
	// tenancy: consolidation
	// tenancy: htap-mix
}

// ExampleRunner executes a custom experiment through the worker-pool
// runner. Any function returning a structured Result plugs into the same
// machinery as the paper's figures.
func ExampleRunner() {
	exp := elasticore.Experiment{
		Name:    "answer",
		Title:   "The answer",
		Summary: "returns a single metric",
		Tags:    []string{"demo"},
		Body: func(ctx context.Context, c elasticore.ExperimentConfig, obs elasticore.Observer) (*elasticore.Result, error) {
			res := &elasticore.Result{}
			res.AddMetric("answer", 42, "")
			return res, nil
		},
	}

	runner := &elasticore.Runner{Parallel: 2}
	reports := runner.Run(context.Background(), exp)
	v, _ := reports[0].Result.Metric("answer")
	fmt.Println(reports[0].Name, v, reports[0].Err)
	// Output: answer 42 <nil>
}

// ExampleHistogram records latencies into the log-bucketed histogram and
// reads percentiles back with bounded relative error.
func ExampleHistogram() {
	var h elasticore.Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Record(v)
	}
	fmt.Println("count:", h.Count())
	fmt.Println("min..max:", h.Min(), "..", h.Max())
	fmt.Println("p50 within 1/16:", h.P50() >= 500-500/16 && h.P50() <= 500+500/16)

	// Histograms merge bucket-wise (e.g. across tenants).
	var other elasticore.Histogram
	other.Record(5000)
	h.Merge(&other)
	fmt.Println("merged:", h.Count(), h.Max())
	// Output:
	// count: 1000
	// min..max: 1 .. 1000
	// p50 within 1/16: true
	// merged: 1001 5000
}

// ExampleOpenDriver replays a seeded Poisson arrival stream against a
// rig: open-loop traffic with an admission queue, where backlog and tail
// latency are observable.
func ExampleOpenDriver() {
	rig, err := elasticore.NewRig(elasticore.RigOptions{
		SF:   0.002,
		Mode: elasticore.ModeAdaptive,
	})
	if err != nil {
		log.Fatal(err)
	}
	d := &elasticore.OpenDriver{
		Rig:         rig,
		Process:     elasticore.PoissonArrivals(400, 7), // 400 q/s, seed 7
		MaxInFlight: 8,
		MaxArrivals: 40,
	}
	res := d.Run(func(k int) *elasticore.Plan {
		return elasticore.BuildQuery(6, uint64(k+1))
	})
	fmt.Println("offered:", res.Offered, "dropped:", res.Dropped)
	fmt.Println("all completed:", res.Completed == res.Offered)
	fmt.Println("p99 >= p50:", res.Latency.P99() >= res.Latency.P50())
	// Output:
	// offered: 40 dropped: 0
	// all completed: true
	// p99 >= p50: true
}

// ExampleArbiter consolidates two tenant databases onto one machine:
// each keeps its own elastic mechanism, and the arbiter transfers cores
// between their cgroups under SLA weights without over-committing.
func ExampleArbiter() {
	rig, err := elasticore.NewMultiRig(elasticore.MultiRigOptions{
		Tenants: []elasticore.TenantSpec{
			{Name: "gold", SF: 0.002, Mode: elasticore.ModeDense,
				SLA: elasticore.SLA{Weight: 4, MinCores: 2}},
			{Name: "bronze", SF: 0.002, Mode: elasticore.ModeSparse,
				SLA: elasticore.SLA{Weight: 1}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	loads := []elasticore.TenantLoad{
		{Clients: 8, QueriesPerClient: 4, Plan: func(c, k int) *elasticore.Plan {
			return elasticore.BuildQuery(6, uint64(c*10+k+1))
		}},
		{Clients: 8, QueriesPerClient: 4, Plan: func(c, k int) *elasticore.Plan {
			return elasticore.BuildQuery(6, uint64(c*10+k+1))
		}},
	}
	res, err := rig.Run(loads, 0, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	gold, bronze := rig.Tenants[0], rig.Tenants[1]
	fmt.Println("no over-commit:", res.PeakTotalCores <= res.MachineCores)
	fmt.Println("disjoint cpusets:", gold.Allocated().Intersect(bronze.Allocated()) == 0)
	fmt.Println("gold keeps its floor:", gold.Allocated().Count() >= 2)
	// Output:
	// no over-commit: true
	// disjoint cpusets: true
	// gold keeps its floor: true
}

// ExampleSharder partitions hashed shards into contiguous per-machine
// ranges: the same key always routes to the same shard, and every shard
// has exactly one owner.
func ExampleSharder() {
	fleet, err := elasticore.NewFleet(elasticore.FleetOptions{
		Machines: 4,
		Shards:   8, // 8 shards on 4 machines
		SF:       0.002,
	})
	if err != nil {
		log.Fatal(err)
	}
	sh := fleet.Sharder
	for m := 0; m < 4; m++ {
		lo, hi := sh.ShardsOf(m)
		fmt.Printf("machine %d owns shards [%d,%d)\n", m, lo, hi)
	}
	key := sh.KeyForShard(5, 0) // synthesize a key hashing to shard 5
	fmt.Println("key routes to shard", sh.Shard(key), "on machine", sh.Owner(sh.Shard(key)))
	// Output:
	// machine 0 owns shards [0,2)
	// machine 1 owns shards [2,4)
	// machine 2 owns shards [4,6)
	// machine 3 owns shards [6,8)
	// key routes to shard 5 on machine 2
}

// ExampleCoordinator runs open-loop traffic against a two-machine fleet:
// keyed queries go to their shard's owner, every third request fans out
// to all machines and merges by scalar addition.
func ExampleCoordinator() {
	fleet, err := elasticore.NewFleet(elasticore.FleetOptions{
		Machines: 2,
		Shards:   4,
		SF:       0.002,
		Seed:     7,
		Mode:     elasticore.ModeDense,
	})
	if err != nil {
		log.Fatal(err)
	}
	c := &elasticore.Coordinator{
		Fleet:   fleet,
		Process: elasticore.PoissonArrivals(400, 7),
		Keys: func(k int) uint64 { // route request k by its shard
			return fleet.Sharder.KeyForShard(k%fleet.Sharder.Shards(), uint64(k))
		},
		ScatterEvery: 3,
		MaxArrivals:  12,
	}
	res := c.Run()
	fmt.Println("offered:", res.Offered, "scattered:", res.Scattered)
	fmt.Println("all completed:", res.Completed == res.Offered)
	fmt.Println("merged revenue positive:", res.MergedScalars > 0)
	// Output:
	// offered: 12 scattered: 4
	// all completed: true
	// merged revenue positive: true
}

// ExampleClusterArbiter attaches the cluster control tier to a fleet
// under a core budget below physical capacity: the per-machine
// mechanisms evaluate their desires, the arbiter apportions and moves
// cores across machines, charging a migration latency per moved core.
func ExampleClusterArbiter() {
	fleet, err := elasticore.NewFleet(elasticore.FleetOptions{
		Machines: 2,
		SF:       0.002,
		Seed:     7,
		Mode:     elasticore.ModeAdaptive,
	})
	if err != nil {
		log.Fatal(err)
	}
	ca, err := elasticore.NewClusterArbiter(elasticore.ClusterArbiterConfig{
		Fleet:  fleet,
		Budget: 12, // two 16-core machines share 12 cores
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		fleet.Tick()
	}
	held := 0
	for _, n := range fleet.AllocatedCores() {
		held += n
	}
	fmt.Println("within budget:", held+ca.InTransit() <= ca.Budget())
	fmt.Println("charged = moved x latency:",
		ca.ChargedCycles == uint64(ca.MovedCores)*ca.MigrateLatency())
	// Output:
	// within budget: true
	// charged = moved x latency: true
}

// ExampleMode_nodeFill places six cores on the 8-socket twisted-ladder
// machine: the node-fill mode packs one socket, then opens a one-hop
// neighbour — never a distant node.
func ExampleMode_nodeFill() {
	topo := elasticore.EightSocketTwisted()
	rig, err := elasticore.NewRig(elasticore.RigOptions{SF: 0.001, Topology: topo, Mode: elasticore.ModeNodeFill})
	if err != nil {
		log.Fatal(err)
	}

	set := rig.Mech.Place(6, 0)
	fmt.Println("cpuset:", set)
	for _, n := range set.NodesTouched(topo) {
		fmt.Printf("node %d: %d hops from node 0\n", n, topo.Hops(0, n))
	}
	// Output:
	// cpuset: 0-5
	// node 0: 0 hops from node 0
	// node 1: 1 hops from node 0
}
