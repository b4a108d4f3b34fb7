package experiments

import (
	"context"
	"fmt"
	"slices"
)

// register.go is the experiment catalogue: one table, one row per
// experiment, in listing order — the paper's artifacts (figures 4-20, the
// mechanism overhead, consolidation) first, then the traffic, topology,
// cluster and failure scenarios. A new scenario is one more row.

// catalogue is every experiment elasticbench can list and run.
var catalogue = []Experiment{
	{
		Name:    "fig4",
		Title:   "Figure 4: Q6 under increasing concurrency",
		Summary: "Hand-coded C kernel under preset affinities vs the Volcano engine under the OS: throughput, minor faults/s, HT MB/s per user count.",
		Tags:    []string{"microbench", "scheduling"},
		Body:    runFig4,
	},
	{
		Name:    "fig5",
		Title:   "Figure 5: single-client Q6 thread scheduling under the OS",
		Summary: "Lifespan/core-migration map and operator tomograph of one Q6 under the plain OS scheduler (Figures 5 and 6).",
		Tags:    []string{"microbench", "trace"},
		Body:    runFig5,
	},
	{
		Name:    "fig7",
		Title:   "Figure 7: PrT state transitions under a Q6 burst",
		Summary: "Transitions fired by the elastic net with CPU usage and allocated cores at every control period.",
		Tags:    []string{"elastic", "petrinet"},
		Body:    runFig7,
	},
	{
		Name:    "fig13",
		Title:   "Figure 13: thetasubselect under increasing concurrency",
		Summary: "Throughput, CPU load, tasks and stolen tasks for OS/dense/sparse/adaptive across a user sweep.",
		Tags:    []string{"microbench", "elastic"},
		Body:    runFig13,
	},
	{
		Name:    "fig14",
		Title:   "Figure 14: per-socket memory access metrics",
		Summary: "L3 misses, memory throughput and HT traffic per socket at the highest thetasubselect concurrency, per mode.",
		Tags:    []string{"microbench", "memory"},
		Body:    runFig14,
	},
	{
		Name:    "fig15",
		Title:   "Figure 15: L3 misses vs selectivity",
		Summary: "L3 load misses of thetasubselect across selectivities 2..100% for the four modes.",
		Tags:    []string{"microbench", "memory"},
		Body:    runFig15,
	},
	{
		Name:    "fig16",
		Title:   "Figure 16: single-client Q6 thread migration per mode",
		Summary: "Lifespan/migration maps under all four configurations; dense and adaptive keep threads on one node.",
		Tags:    []string{"elastic", "trace"},
		Body:    runFig16,
	},
	{
		Name:    "fig17",
		Title:   "Figure 17: CPU-load vs HT/IMC state-transition strategies, Q6, 1 client",
		Summary: "Response time, HT traffic and L3 misses of the mechanism's two strategies against the OS baseline.",
		Tags:    []string{"elastic", "strategy"},
		Body:    runFig17,
	},
	{
		Name:    "fig18",
		Title:   "Figure 18: stable phases workload",
		Summary: "All 22 queries one at a time under {OS, adaptive} x {MonetDB-like, SQL-Server-like} with per-socket memory-throughput timelines.",
		Tags:    []string{"elastic", "workload"},
		Body:    runFig18,
	},
	{
		Name:    "fig19",
		Title:   "Figure 19: mixed phases workload, per-query split",
		Summary: "Per-query speedup of each mechanism mode over the OS and the per-query HT/IMC ratio, per engine flavour.",
		Tags:    []string{"elastic", "workload"},
		Body:    runFig19,
	},
	{
		Name:    "fig20",
		Title:   "Figure 20: per-query CPU and HT energy estimates",
		Summary: "The paper's energy model applied to the mixed workload: OS vs adaptive, with geometric-mean savings.",
		Tags:    []string{"elastic", "energy"},
		Body:    runFig20,
	},
	{
		Name:    "overhead",
		Title:   "Mechanism overhead: one token flow through the 5x8 net",
		Summary: "Host wall-clock cost of one control step (sample, evaluate, act) per allocation mode, 1000 steps averaged.",
		Tags:    []string{"elastic", "microbench"},
		Body: func(ctx context.Context, c Config, obs Observer) (*Result, error) {
			return runOverhead(ctx, c, obs, 1000)
		},
	},
	{
		Name:    "consolidation",
		Title:   "Consolidation: SLA-weighted multi-tenant core arbitration",
		Summary: "N saturated tenant databases on one machine: weighted apportionment vs an equal-weight baseline, with over-commit and starvation checks.",
		Tags:    []string{"tenancy", "elastic"},
		Body:    runConsolidation,
	},
	{
		Name:    "htap-mix",
		Title:   "HTAP mix: point-lookup vs scan ratio sweep per tenant",
		Summary: "Consolidated tenants each submitting a deterministic blend of single-row order lookups and scan/join/aggregate pipelines across the lookup:scan ratio sweep, with per-class throughput and latency split by completion hooks.",
		Tags:    []string{"tenancy", "workload", "htap"},
		Body:    runHTAPMix,
	},
	{
		Name:    "latency-load",
		Title:   "Open loop: throughput and latency percentiles vs offered load",
		Summary: "Seeded arrival streams from 0.25x to 2x the closed-loop saturation throughput: completions, load shedding and p50/p90/p99/max latency per point.",
		Tags:    []string{"openloop", "traffic"},
		Body:    runLatencyLoad,
	},
	{
		Name:    "burst-response",
		Title:   "Open loop: elastic reaction to an MMPP traffic burst",
		Summary: "Core-allocation and p99 timelines around bursty arrivals: static all-cores baseline vs the adaptive mechanism with and without the admission-queue pressure signal.",
		Tags:    []string{"openloop", "traffic", "elastic"},
		Body:    runBurstResponse,
	},
	{
		Name:    "topology-sweep",
		Title:   "Topology zoo: Q6 concurrency across machine shapes x placement policies",
		Summary: "The fig4-style workload on every zoo topology (opteron, 2socket, 4ring, 8twisted, epyc) under node-fill, hop-min and scatter core placement: throughput, HT/IMC bytes and the Section V-B NUMA-friendliness ratio.",
		Tags:    []string{"topology", "numa", "elastic"},
		Body:    runTopologySweep,
	},
	{
		Name:    "scale-out",
		Title:   "Cluster: throughput speedup across fleet sizes",
		Summary: "One fixed saturating arrival stream over a sharded TPC-H dataset against fleets of 1..N machines: throughput, speedup over one machine and latency percentiles per fleet size.",
		Tags:    []string{"cluster", "openloop"},
		Body:    runScaleOut,
	},
	{
		Name:    "shard-skew",
		Title:   "Cluster: Zipf shard heat at fixed fleet size",
		Summary: "Keyed routing under Zipf-skewed shard popularity (theta 0/1/2): throughput, tail latency and the per-machine routing imbalance the hash partitioning cannot absorb.",
		Tags:    []string{"cluster", "openloop"},
		Body:    runShardSkew,
	},
	{
		Name:    "rebalance-cost",
		Title:   "Cluster: migration-latency cost of chasing a moving hot shard",
		Summary: "A hot shard that shifts machines mid-run under a contended cluster core budget: moved cores, charged migration cycles and throughput per migration latency.",
		Tags:    []string{"cluster", "elastic"},
		Body:    runRebalanceCost,
	},
	{
		Name:    "fault-tolerance",
		Title:   "Cluster: crash-and-recover window, static vs elastic vs replicated+hedged",
		Summary: "One deterministic crash plan against three fleet configurations: per-phase shed rate and latency percentiles, retry/hedge/failover counts and the resolution timeline through the failure window.",
		Tags:    []string{"cluster", "faults"},
		Body:    runFaultTolerance,
	},
	{
		Name:    "partial-degradation",
		Title:   "Cluster: impaired-not-dead machines — slow cores and lossy links",
		Summary: "A slow-core factor sweep and a lossy-link delay/drop sweep on one machine of the fleet: throughput, shed and tail latency per impairment level, with timeout-driven retry recovery for dropped messages.",
		Tags:    []string{"cluster", "faults"},
		Body:    runPartialDegradation,
	},
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	i := slices.IndexFunc(catalogue, func(e Experiment) bool { return e.Name == name })
	if i < 0 {
		return Experiment{}, false
	}
	return catalogue[i], true
}

// All returns every experiment in catalogue order.
func All() []Experiment { return slices.Clone(catalogue) }

// Names returns every experiment's name in catalogue order.
func Names() []string {
	names := make([]string, len(catalogue))
	for i, e := range catalogue {
		names[i] = e.Name
	}
	return names
}

// WithTag returns the experiments carrying the tag, in catalogue order.
func WithTag(tag string) []Experiment {
	var out []Experiment
	for _, e := range catalogue {
		if slices.Contains(e.Tags, tag) {
			out = append(out, e)
		}
	}
	return out
}

// Tags returns the sorted union of all experiments' tags.
func Tags() []string {
	var tags []string
	for _, e := range catalogue {
		tags = append(tags, e.Tags...)
	}
	slices.Sort(tags)
	return slices.Compact(tags)
}

// Resolve maps names to experiments, rejecting unknown names up front, so
// a typo in a batch fails before any experiment starts. The special name
// "all" expands to the whole catalogue.
func Resolve(names ...string) ([]Experiment, error) {
	var exps []Experiment
	var unknown []string
	for _, name := range names {
		if name == "all" {
			exps = append(exps, catalogue...)
			continue
		}
		if e, ok := Lookup(name); ok {
			exps = append(exps, e)
		} else {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("experiments: unknown experiment(s) %v; known: %v", unknown, Names())
	}
	return exps, nil
}
