package main

// metrics.go declares every metric the benchmark reports. BENCHMARK.json
// at the repository root carries the same declarations for the driver;
// the package test fails when the two disagree.

// metricDef declares one metric.
type metricDef struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may get worse before compare calls it regressed; zero for
	// per-layer metrics, which carry no bound.
	Bound float64
	// Exact marks simulated quantities: at one seed they repeat bit for
	// bit, so compare reports any difference at all as changed-exact.
	Exact bool
}

// endToEnd lists the nine end-to-end metrics, reported per workload by an
// untraced run. Host time and simulated time are never mixed: the sim_
// prefix marks simulated quantities.
//
// The bounds are sized for the driver, which gives every run another
// seed and accepts a metric only if its spread over ten seeds
// (interquartile range over median) stays within the bound: each is two
// to three times the widest spread seen on any workload. The two host
// times are reported at the reference host speed (probe.go), because the
// shared sandbox runs the same binary up to 45 % slower for minutes at a
// time; their bounds cover what that leaves. See README.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_run", Unit: "count", Better: "lower", Bound: 0.15},
	{Name: "alloc_mb_per_run", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "sim_qps", Unit: "1/s", Better: "higher", Bound: 0.25, Exact: true},
	{Name: "sim_mean_ms", Unit: "ms", Better: "lower", Bound: 0.15, Exact: true},
	{Name: "sim_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Exact: true},
	{Name: "sim_ht_imc_ratio", Unit: "ratio", Better: "lower", Bound: 0.10, Exact: true},
}

func kernel(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }

func count(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Exact: true}
}

func share(name string) metricDef { return metricDef{Name: name, Unit: "share", Better: "lower"} }

// perLayer lists the per-layer metrics, reported per workload by a traced
// run. Three families: kernels (host time or allocations of one exported
// call, the same on every workload), counts (exact simulated work of the
// workload) and shares (where the traced run's CPU samples and allocated
// objects fall, by innermost elasticore/internal/<layer> frame).
var perLayer = []metricDef{
	// numa
	kernel("numa.access_range_ns_per_block", "ns"),
	kernel("numa.access_range_allocs", "count"),
	kernel("numa.advance_idle_ns", "ns"),
	kernel("numa.snapshot_ns", "ns"),
	kernel("numa.snapshot_allocs", "count"),
	count("numa.l3_misses", "count", "lower"),
	count("numa.ht_mb", "MB", "lower"),
	count("numa.imc_mb", "MB", "lower"),
	count("numa.minor_faults", "count", "lower"),
	count("numa.invalidations", "count", "lower"),
	share("numa.cpu_share"),
	share("numa.alloc_share"),
	// sched
	kernel("sched.tick_busy_ns", "ns"),
	kernel("sched.tick_idle_ns", "ns"),
	kernel("sched.tick_empty_ns", "ns"),
	kernel("sched.tick_allocs", "count"),
	kernel("sched.block_wake_ns", "ns"),
	count("sched.quanta", "count", "lower"),
	count("sched.ticks_run", "count", "lower"),
	count("sched.migrations", "count", "lower"),
	count("sched.cross_node_migrations", "count", "lower"),
	count("sched.stolen_tasks", "count", "lower"),
	count("sched.spawned", "count", "lower"),
	share("sched.cpu_share"),
	share("sched.alloc_share"),
	// db
	kernel("db.filter_scan_ns_per_row", "ns"),
	kernel("db.gather_ns_per_row", "ns"),
	kernel("db.map_binary_ns_per_row", "ns"),
	kernel("db.sum_agg_ns_per_row", "ns"),
	kernel("db.fused_q6_ns_per_row", "ns"),
	kernel("db.lookup_ns_per_probe", "ns"),
	kernel("db.hash_join_ns_per_row", "ns"),
	kernel("db.group_agg_ns_per_row", "ns"),
	kernel("db.plan_compile_ns", "ns"),
	kernel("db.q6_submit_ns_per_chunk", "ns"),
	kernel("db.q6_allocs_per_query", "count"),
	count("db.queries_done", "count", "higher"),
	count("db.lookups_done", "count", "higher"),
	count("db.scans_done", "count", "higher"),
	count("db.tasks_done", "count", "lower"),
	share("db.cpu_share"),
	share("db.alloc_share"),
	// tpch
	kernel("tpch.gen_s_per_sf", "s"),
	kernel("tpch.gen_mb_per_sf", "MB"),
	kernel("tpch.plan_build_ns", "ns"),
	count("tpch.plans_built", "count", "lower"),
	share("tpch.cpu_share"),
	share("tpch.alloc_share"),
	// petrinet
	kernel("petrinet.evaluate_ns", "ns"),
	kernel("petrinet.evaluate_allocs", "count"),
	share("petrinet.cpu_share"),
	share("petrinet.alloc_share"),
	// elastic
	kernel("elastic.step_ns", "ns"),
	kernel("elastic.step_allocs", "count"),
	count("elastic.control_steps", "count", "lower"),
	count("elastic.grows", "count", "lower"),
	count("elastic.shrinks", "count", "lower"),
	count("elastic.mean_cores", "cores", "lower"),
	share("elastic.cpu_share"),
	share("elastic.alloc_share"),
	// tenant
	kernel("tenant.arbiter_step_ns", "ns"),
	kernel("tenant.arbiter_step_allocs", "count"),
	kernel("tenant.apportion_ns", "ns"),
	count("tenant.grants", "count", "lower"),
	count("tenant.peak_total_cores", "cores", "lower"),
	share("tenant.cpu_share"),
	share("tenant.alloc_share"),
	// workload
	kernel("workload.admission_cycle_ns", "ns"),
	kernel("workload.admission_allocs", "count"),
	kernel("workload.rig_build_ms", "ms"),
	count("workload.offered", "count", "higher"),
	count("workload.completed", "count", "higher"),
	count("workload.dropped", "count", "lower"),
	count("workload.abandoned", "count", "lower"),
	count("workload.peak_queue", "count", "lower"),
	share("workload.cpu_share"),
	share("workload.alloc_share"),
	// cluster
	kernel("cluster.barrier_ns_w1", "ns"),
	kernel("cluster.barrier_ns_wn", "ns"),
	kernel("cluster.advance_ns_per_quantum", "ns"),
	kernel("cluster.shard_route_ns", "ns"),
	kernel("cluster.fleet_build_ms", "ms"),
	// cluster.workers follows the host's GOMAXPROCS, so it is not exact.
	{Name: "cluster.workers", Unit: "count", Better: "higher"},
	count("cluster.routed_keyed", "count", "higher"),
	count("cluster.scattered", "count", "higher"),
	count("cluster.retried", "count", "lower"),
	count("cluster.hedged", "count", "lower"),
	count("cluster.failovers", "count", "lower"),
	count("cluster.failed", "count", "lower"),
	count("cluster.wire_dropped", "count", "lower"),
	count("cluster.moved_cores", "count", "lower"),
	count("cluster.reassigned", "count", "lower"),
	count("cluster.deaths", "count", "lower"),
	count("cluster.recoveries", "count", "higher"),
	share("cluster.cpu_share"),
	share("cluster.alloc_share"),
	// faults
	kernel("faults.parse_compile_us", "us"),
	count("faults.edges_applied", "count", "lower"),
	share("faults.cpu_share"),
	// obs
	kernel("obs.publish_ns", "ns"),
	kernel("obs.publish_allocs", "count"),
	kernel("obs.perfetto_export_ms", "ms"),
	count("obs.events_total", "count", "lower"),
	count("obs.events_dropped", "count", "lower"),
	share("obs.cpu_share"),
	share("obs.alloc_share"),
	// metrics, arrivals
	kernel("metrics.hist_record_ns", "ns"),
	kernel("metrics.hist_quantiles_ns", "ns"),
	kernel("arrivals.mmpp_next_ns", "ns"),
	// runtime: the Go runtime is no module of the repository. Its work on
	// behalf of a layer (mallocgc, memmove) counts toward that layer; its
	// own threads (GC workers, idle threads) take 2-12 % of the samples.
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	share("runtime.gc_cpu_share"),
	share("runtime.sched_cpu_share"),
	share("runtime.other_cpu_share"),
	// benchmark: the harness itself.
	{Name: "benchmark.wall_iqr_frac", Unit: "frac", Better: "lower"},
	{Name: "benchmark.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "benchmark.sim_mcycles_per_host_s", Unit: "Mcycles/s", Better: "higher"},
	{Name: "benchmark.host_probe_ns", Unit: "ns", Better: "lower"},
}

// shareLayers are the layers a profile sample can be attributed to; a
// sample goes to the innermost frame inside elasticore/internal/<layer>
// for one of these. The helper packages (deque, hashmix, metrics,
// arrivals) are skipped over, so their time counts toward their caller.
var shareLayers = []string{
	"numa", "sched", "db", "tpch", "petrinet", "elastic", "tenant",
	"workload", "cluster", "faults", "obs",
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
