package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"elasticore/internal/arrivals"
	"elasticore/internal/cluster"
	"elasticore/internal/db"
	"elasticore/internal/faults"
	"elasticore/internal/metrics"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/petrinet"
	"elasticore/internal/sched"
	"elasticore/internal/tenant"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// kernels.go times one exported call of each layer in a loop, on inputs
// shaped like the workloads'. The numbers are the same on every workload;
// each traced run measures them once. A plain timed loop stands in for
// testing.Benchmark, whose one-second default per benchmark would cost
// the traced run minutes.

// kernelTarget is how long one timed sample of a kernel should last.
var kernelTarget = 20 * time.Millisecond

// The sinks keep results alive so the compiler cannot drop the measured
// calls. Only pointers go into the untyped one: boxing a value would
// allocate inside the loops whose allocations are being counted.
var (
	sink     any
	sinkU64  uint64
	sinkInts []int
)

// bench times fn(n), growing n until one call lasts kernelTarget, and
// returns the best of three samples in ns per iteration and the
// allocations per iteration of the last one.
func bench(fn func(n int)) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d >= kernelTarget || n >= 1<<30 {
			break
		} else if d < kernelTarget/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	best := 0.0
	var m0, m1 runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if ns := float64(d.Nanoseconds()) / float64(n); i == 0 || ns < best {
			best = ns
		}
	}
	return best, float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// once times a single-shot call three times and returns the best, in
// seconds.
func once(fn func()) float64 {
	best := 0.0
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0).Seconds(); i == 0 || d < best {
			best = d
		}
	}
	return best
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("benchmark kernel set-up: %v", err))
	}
	return v
}

// runKernels measures every kernel metric. smoke shrinks the samples to a
// millisecond so the package test stays fast.
func runKernels(smoke bool) map[string]float64 {
	if smoke {
		defer func(d time.Duration) { kernelTarget = d }(kernelTarget)
		kernelTarget = time.Millisecond
	}
	out := map[string]float64{}
	kernelsNuma(out)
	kernelsSched(out)
	kernelsDB(out, smoke)
	kernelsTPCH(out, smoke)
	kernelsControl(out)
	kernelsWorkload(out, smoke)
	kernelsCluster(out, smoke)
	kernelsObs(out, smoke)
	return out
}

func kernelsNuma(out map[string]float64) {
	topo := workload.ScaledTopology(0.04)
	m := numa.NewMachine(topo)
	const pid, blocks = 7, 64
	// Half the ranges are homed on the accessing core's node, half on a
	// remote one; every other sweep writes, which reaches the remote
	// invalidation path.
	local := m.Memory().AllocOn(64*blocks, 0, pid)
	remote := m.Memory().AllocOn(64*blocks, numa.NodeID(topo.NodeCount-1), pid)
	ns, allocs := bench(func(n int) {
		for i := 0; i < n; i++ {
			region := local
			if i&1 == 1 {
				region = remote
			}
			core := numa.CoreID(0)
			if i&4 != 0 {
				core = topo.CoreOf(1, 0)
			}
			sinkU64 += m.AccessRange(core, numa.RangeAccess{
				Start:  region.Block((i >> 1 & 63) * blocks),
				Blocks: blocks,
				Write:  i&2 != 0,
				PID:    pid,
			}).Cycles
		}
	})
	out["numa.access_range_ns_per_block"] = ns / blocks
	out["numa.access_range_allocs"] = allocs

	quantum := topo.SecondsToCycles(50e-6)
	const skipped = 1000
	ns, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			m.AdvanceTimeIdle(quantum, skipped)
		}
	})
	out["numa.advance_idle_ns"] = ns / skipped

	ns, allocs = bench(func(n int) {
		for i := 0; i < n; i++ {
			sinkU64 += m.Snapshot().Now
		}
	})
	out["numa.snapshot_ns"] = ns
	out["numa.snapshot_allocs"] = allocs
}

func kernelsSched(out map[string]float64) {
	topo := workload.ScaledTopology(0.04)
	quantum := topo.SecondsToCycles(50e-6)

	// Busy: one spinning thread per core.
	busy := sched.New(numa.NewMachine(topo), sched.Config{Quantum: quantum})
	spin := sched.RunnerFunc(func(_ *sched.ExecContext, budget uint64) (uint64, bool, bool) { return budget, false, false })
	for c := 0; c < topo.TotalCores(); c++ {
		busy.Spawn(1, "spin", spin)
	}
	ns, allocs := bench(func(n int) {
		for i := 0; i < n; i++ {
			busy.Tick()
		}
	})
	out["sched.tick_busy_ns"] = ns
	out["sched.tick_allocs"] = allocs

	// Idle, both ways: RunUntil fast-forwards a stretch with nothing
	// runnable in bulk; a driver that calls Tick itself walks each quantum.
	idle := sched.New(numa.NewMachine(topo), sched.Config{Quantum: quantum})
	const stretch = 1000
	never := func() bool { return false }
	ns, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			idle.RunUntil(never, stretch*quantum)
		}
	})
	out["sched.tick_idle_ns"] = ns / stretch
	ns, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			idle.Tick()
		}
	})
	out["sched.tick_empty_ns"] = ns

	// Block and wake: 256 threads of one process that block whenever they
	// run; each iteration wakes one and ticks, which blocks it again.
	s := sched.New(numa.NewMachine(topo), sched.Config{Quantum: quantum})
	block := sched.RunnerFunc(func(_ *sched.ExecContext, _ uint64) (uint64, bool, bool) { return 1, true, false })
	threads := make([]*sched.Thread, 256)
	for i := range threads {
		threads[i] = s.Spawn(1, "blocker", block)
	}
	for i := 0; i < 64; i++ {
		s.Tick() // every thread runs once and blocks
	}
	ns, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			s.Wake(threads[i*37%len(threads)])
			s.Tick()
		}
	})
	out["sched.block_wake_ns"] = ns
}

// runQuery submits one plan on a quiet rig and ticks it to completion.
func runQuery(rig *workload.Rig, p *db.Plan) {
	q := rig.Engine.Submit(p)
	for !q.Done() {
		rig.Tick()
	}
	rig.Engine.Release(q)
}

func kernelsDB(out map[string]float64, smoke bool) {
	rows := 1 << 16
	if smoke {
		rows = 1 << 10
	}
	ints := make([]int64, rows)
	f1, f2 := make([]float64, rows), make([]float64, rows)
	for i := range ints {
		ints[i] = int64(i)
		f1[i] = float64(i%50) + 0.5
		f2[i] = float64(i%11) / 100
	}
	keyCol, colA, colB := db.NewI64("k", ints), db.NewF64("a", f1), db.NewF64("b", f2)
	perRow := func(name string, fn func()) {
		ns, _ := bench(func(n int) {
			for i := 0; i < n; i++ {
				fn()
			}
		})
		out[name] = ns / float64(rows)
	}
	const batch = 1024
	drain := func(op db.Operator) {
		for b := op.Next(batch); b != nil; b = op.Next(batch) {
			sink = b
		}
	}
	idBuf := make([]int64, 0, rows)
	perRow("db.filter_scan_ns_per_row", func() {
		drain(db.NewFilterScan(colA, db.PredFLess(25), 0, rows, idBuf[:0]))
	})
	cand := db.NewI64("cand", ints)
	gatherOut := db.NewF64("out", make([]float64, 0, rows))
	perRow("db.gather_ns_per_row", func() {
		gatherOut.F = gatherOut.F[:0]
		drain(db.NewGather(colA, cand, gatherOut))
	})
	valBuf := make([]float64, 0, rows)
	mul := func(x, y float64) float64 { return x * y }
	perRow("db.map_binary_ns_per_row", func() {
		drain(db.NewMapBinary(colA, colB, mul, valBuf[:0]))
	})
	perRow("db.sum_agg_ns_per_row", func() { drain(db.NewSumAgg(colA)) })
	dates := make([]int64, rows)
	for i := range dates {
		dates[i] = 19940101 + int64(i%700)
	}
	dateCol := db.NewI64("d", dates)
	perRow("db.fused_q6_ns_per_row", func() {
		drain(db.NewFusedQ6(dateCol, colA, colB, colA, 0, rows))
	})
	probes := make([]int64, rows)
	for i := range probes {
		probes[i] = int64(uint64(i) * 2654435761 % uint64(rows))
	}
	perRow("db.lookup_ns_per_probe", func() { drain(db.NewLookup(keyCol, colA, probes)) })

	// The hash operators need the engine's own maps, so they run as
	// compiled PlanSpecs on a quiet one-client rig, as does Q6 for the
	// chunk-dispatch and pooling cost.
	sf := 0.01
	if smoke {
		sf = 0.002
	}
	rig := must(workload.NewRig(workload.Options{SF: sf, Seed: 1}))
	lineitems := float64(rig.Dataset.Sizes.Lineitem)
	join := must(db.NewPlanSpec("bench-join").
		ScanAll("orders", "o_orderkey", "co").
		Project("co", "orders", "o_orderkey", "okeys").
		Build("okeys", "", "oset").
		ScanAll("lineitem", "l_orderkey", "cl").
		ProbeSemi("cl", "lineitem", "l_orderkey", "oset", "cl2").
		Count("cl2", "result").Compile(rig.Store))
	ns, _ := bench(func(n int) {
		for i := 0; i < n; i++ {
			runQuery(rig, join)
		}
	})
	out["db.hash_join_ns_per_row"] = ns / lineitems
	group := must(db.NewPlanSpec("bench-group").
		ScanAll("lineitem", "l_suppkey", "cl").
		Project("cl", "lineitem", "l_suppkey", "sk").
		Project("cl", "lineitem", "l_extendedprice", "price").
		GroupSum("sk", "price", "p1").
		GroupMerge("p1", "gk", "gs").Compile(rig.Store))
	ns, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			runQuery(rig, group)
		}
	})
	out["db.group_agg_ns_per_row"] = ns / lineitems

	ns, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			sink = must(tpch.AdHocSpec(uint64(i)).Compile(rig.Store))
		}
	})
	out["db.plan_compile_ns"] = ns

	runQuery(rig, tpch.BuildQ6(1)) // warm the engine's buffer pool
	tasks0 := rig.Engine.TasksExecuted
	queries := 0
	ns, allocs := bench(func(n int) {
		for i := 0; i < n; i++ {
			runQuery(rig, tpch.BuildQ6(uint64(i)+2))
		}
		queries += n
	})
	chunksPerQuery := float64(rig.Engine.TasksExecuted-tasks0) / float64(queries)
	out["db.q6_submit_ns_per_chunk"] = ns / chunksPerQuery
	out["db.q6_allocs_per_query"] = allocs
}

func kernelsTPCH(out map[string]float64, smoke bool) {
	sf := 0.05
	if smoke {
		sf = 0.002
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	loads := 0
	secs := once(func() {
		store := db.NewStore(numa.NewMachine(workload.ScaledTopology(sf)))
		sink = must(tpch.Load(store, tpch.Config{SF: sf, Seed: 1, NoCache: true}))
		loads++
	})
	runtime.ReadMemStats(&m1)
	out["tpch.gen_s_per_sf"] = secs / sf
	out["tpch.gen_mb_per_sf"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(loads) / sf

	ns, _ := bench(func(n int) {
		for i := 0; i < n; i++ {
			for q := 1; q <= tpch.QueryCount; q++ {
				sink = tpch.Build(q, uint64(i))
			}
		}
	})
	out["tpch.plan_build_ns"] = ns / tpch.QueryCount
}

// kernelsControl covers the control plane: the PrT net, the mechanism's
// step and the tenant arbiter.
func kernelsControl(out map[string]float64) {
	net := petrinet.NewElasticNet(10, 70, 16)
	readings := []int{5, 40, 90, 40, 90, 5}
	ns, allocs := bench(func(n int) {
		for i := 0; i < n; i++ {
			sinkU64 += uint64(net.Evaluate(readings[i%len(readings)]).NAlloc)
		}
	})
	out["petrinet.evaluate_ns"] = ns
	out["petrinet.evaluate_allocs"] = allocs

	rig := must(workload.NewRig(workload.Options{SF: 0.002, Seed: 1, Mode: workload.ModeAdaptive}))
	ns, allocs = bench(func(n int) {
		for i := 0; i < n; i++ {
			rig.Mech.Step()
		}
	})
	out["elastic.step_ns"] = ns
	out["elastic.step_allocs"] = allocs

	specs := make([]workload.TenantSpec, 3)
	for i := range specs {
		specs[i] = workload.TenantSpec{SF: 0.002, Mode: workload.ModeDense, SLA: tenant.SLA{Weight: 4 >> i, MinCores: 1}}
	}
	multi := must(workload.NewMultiRig(workload.MultiOptions{Tenants: specs}))
	// A round only evaluates tenants whose control period has elapsed, so
	// each iteration first fast-forwards the idle machine by one period.
	period, never := multi.Arbiter.ControlPeriod(), func() bool { return false }
	ns, allocs = bench(func(n int) {
		for i := 0; i < n; i++ {
			multi.Sched.RunUntil(never, period)
			multi.Arbiter.Step()
		}
	})
	out["tenant.arbiter_step_ns"] = ns
	out["tenant.arbiter_step_allocs"] = allocs

	demand, weight, floor := make([]int, 16), make([]int, 16), make([]int, 16)
	for i := range demand {
		demand[i], weight[i], floor[i] = 3+i%9, 1+i%4, 1
	}
	ns, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			sinkInts = tenant.Apportion(demand, weight, floor, 64)
		}
	})
	out["tenant.apportion_ns"] = ns
}

func kernelsWorkload(out map[string]float64, smoke bool) {
	rig := must(workload.NewRig(workload.Options{SF: 0.002, Seed: 1}))
	adm := &workload.Admission{Rig: rig}
	empty := &db.Plan{Name: "empty"}
	plan := func(int, int64) *db.Plan { return empty }
	// One request's round trip through the admission layer: offered,
	// seated on an empty plan, ticked through the engine's front end,
	// collected.
	ns, allocs := bench(func(n int) {
		for i := 0; i < n; i++ {
			now := rig.Machine.Now()
			adm.Offer(now, now, int64(i))
			adm.Fill(now, plan)
			for adm.InFlight() > 0 {
				rig.Tick()
				adm.Collect(rig.Machine.Now())
			}
		}
	})
	out["workload.admission_cycle_ns"] = ns
	out["workload.admission_allocs"] = allocs

	sf := 0.04
	if smoke {
		sf = 0.002
	}
	opts := workload.Options{SF: sf, Seed: 1, Mode: workload.ModeAdaptive}
	must(workload.NewRig(opts)) // fill the dataset cache
	out["workload.rig_build_ms"] = once(func() { sink = must(workload.NewRig(opts)) }) * 1e3
}

func kernelsCluster(out map[string]float64, smoke bool) {
	opts := cluster.Options{Machines: 16, Shards: 32, SF: 0.016, Seed: 1,
		Mode: workload.ModeDense, Topology: workload.ScaledTopology(0.016)}
	if smoke {
		opts.Machines, opts.Shards, opts.SF = 4, 8, 0.004
	}
	opts.Workers = 1
	seq := must(cluster.NewFleet(opts))
	ns, _ := bench(func(n int) {
		for i := 0; i < n; i++ {
			seq.Tick()
		}
	})
	out["cluster.barrier_ns_w1"] = ns

	opts.Workers = runtime.GOMAXPROCS(0)
	par := must(cluster.NewFleet(opts))
	ns, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			par.Tick()
		}
	})
	out["cluster.barrier_ns_wn"] = ns
	const stretch = 64
	ns, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			par.Advance(stretch)
		}
	})
	out["cluster.advance_ns_per_quantum"] = ns / stretch
	out["cluster.fleet_build_ms"] = once(func() { sink = must(cluster.NewFleet(opts)) }) * 1e3

	sh := par.Sharder
	ns, _ = bench(func(n int) {
		owner := 0
		for i := 0; i < n; i++ {
			owner += sh.Owner(sh.Shard(uint64(i) * 0x9E3779B97F4A7C15))
		}
		sinkU64 += uint64(owner)
	})
	out["cluster.shard_route_ns"] = ns

	topo := par.Rigs[0].Machine.Topology()
	const spec = "crash m1 @1s for 1s; slow m2 c* x4 @0s; link m3 +0.5ms drop 0.2 @0s"
	ns, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			sink = must(faults.Parse(spec)).Compile(opts.Machines, topo.TotalCores(), topo.SecondsToCycles)
		}
	})
	out["faults.parse_compile_us"] = ns / 1e3
}

// kernelsObs covers telemetry and the two helper packages.
func kernelsObs(out map[string]float64, smoke bool) {
	bus := obs.NewBus(0)
	seen := 0
	bus.SubscribeAll(func(obs.Event) { seen++ })
	ns, allocs := bench(func(n int) {
		for i := 0; i < n; i++ {
			bus.Publish(obs.Event{Kind: obs.Kind(i % 8), Now: uint64(i), Core: int32(i % 16), Dur: 100})
		}
	})
	out["obs.publish_ns"] = ns
	out["obs.publish_allocs"] = allocs

	// Export a ring filled the way burst-open fills it.
	inst := must(buildBurstOpen(1, true, nil)).(*burstOpen)
	if !smoke {
		inst.driver.MaxSeconds = 8 // enough events to wrap the 64 Ki ring
	}
	inst.simulate()
	out["obs.perfetto_export_ms"] = once(func() {
		if err := inst.bus.WriteTrace(io.Discard); err != nil {
			panic(err)
		}
	}) * 1e3

	var h metrics.Histogram
	ns, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			h.Record(uint64(i)*2654435761%1000000 + 1)
		}
	})
	out["metrics.hist_record_ns"] = ns
	ns, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			sinkU64 += h.Quantiles(0.50, 0.99)[1]
		}
	})
	out["metrics.hist_quantiles_ns"] = ns

	p := arrivals.NewMMPP(5, 75, 0.5, 0.2, 1)
	ns, _ = bench(func(n int) {
		t := 0.0
		for i := 0; i < n; i++ {
			t, _ = p.Next()
		}
		sinkU64 += uint64(t)
	})
	out["arrivals.mmpp_next_ns"] = ns
}
