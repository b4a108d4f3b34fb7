// Package elasticore is a faithful, fully self-contained reproduction of
// "An Elastic Multi-Core Allocation Mechanism for Database Systems"
// (Dominico, de Almeida, Meira, Alves — ICDE 2018).
//
// The library bundles everything the paper's system needs, built from
// scratch on the standard library:
//
//   - a deterministic NUMA machine model with hardware counters
//     (internal/numa),
//   - an OS scheduler with load balancing, stealing and cgroups
//     (internal/sched),
//   - the Predicate/Transition net formalism and the paper's elastic net
//     (internal/petrinet),
//   - the elastic allocation mechanism with its dense/sparse/adaptive
//     modes and CPU-load / HT-IMC strategies (internal/elastic),
//   - a Volcano-style columnar DBMS in MonetDB-like and SQL-Server-like
//     flavours (internal/db),
//   - a TPC-H generator and all 22 queries (internal/tpch),
//   - workload drivers, energy model and one experiment harness per
//     paper figure (internal/workload, internal/metrics,
//     internal/experiments),
//   - multi-tenant consolidation: per-tenant elastic mechanisms under a
//     machine-level, SLA-weighted core arbiter (internal/tenant),
//   - a cluster tier: sharded fleets of lockstep machines behind a
//     scatter-gather coordinator, with a second control tier moving
//     cores across machines at an explicit migration cost
//     (internal/cluster),
//   - deterministic fault injection: scheduled crashes, slow cores and
//     lossy links (internal/faults), survived through replica failover,
//     retries, hedged requests and health-monitor-driven shard
//     re-assignment (internal/cluster).
//
// This file re-exports the handful of types a downstream user needs to
// run elastic-allocation experiments without reaching into the internal
// packages; the examples/ directory shows complete programs.
package elasticore

import (
	"io"

	"elasticore/internal/arrivals"
	"elasticore/internal/cluster"
	"elasticore/internal/db"
	"elasticore/internal/experiments"
	"elasticore/internal/faults"
	"elasticore/internal/metrics"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/tenant"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// Topology describes a NUMA machine's shape.
type Topology = numa.Topology

// Plan is an operator pipeline of the Volcano-style columnar engine.
type Plan = db.Plan

// Workload rig types.
type (
	// Rig is a fully wired experiment environment: machine, scheduler,
	// store, engine, cgroup, mechanism.
	Rig = workload.Rig
	// RigOptions configures NewRig.
	RigOptions = workload.Options
	// Mode selects OS baseline or a mechanism allocation mode.
	Mode = workload.Mode
	// Driver runs concurrent client streams against a rig (closed loop:
	// each client submits its next query when the previous completes).
	Driver = workload.Driver
)

// Open-loop traffic types: queries arrive from an independent seeded
// arrival process, wait in a bounded admission queue, and latency splits
// into queue wait plus service time — the regime where backlog, load
// shedding and tail latency are measurable.
type (
	// ArrivalProcess generates a deterministic arrival-time stream
	// (Poisson or MMPP).
	ArrivalProcess = arrivals.Process
	// OpenDriver replays an arrival process against a rig.
	OpenDriver = workload.OpenDriver
	// Histogram is the log-bucketed, mergeable latency histogram behind
	// an open-loop phase's result (p50/p90/p99/max with bounded relative
	// error).
	Histogram = metrics.Histogram
)

// PoissonArrivals returns a constant-rate arrival process (rate in
// arrivals per second).
func PoissonArrivals(rate float64, seed uint64) ArrivalProcess {
	return arrivals.NewPoisson(rate, seed)
}

// MMPPArrivals returns a two-state bursty process alternating between a
// base and a burst rate with the given mean dwell times (seconds).
func MMPPArrivals(baseRate, burstRate, baseDwell, burstDwell float64, seed uint64) ArrivalProcess {
	return arrivals.NewMMPP(baseRate, burstRate, baseDwell, burstDwell, seed)
}

// Telemetry types (internal/obs): the simulation-wide event bus and the
// trace export behind `elasticbench run -trace`.
type (
	// Bus is the typed telemetry event bus every rig layer publishes
	// onto: migrations, run slices, task completions, PrT transitions,
	// arbiter grants, admissions, sheds and query completions.
	Bus = obs.Bus
	// Event is the bus's flat record; its Kind discriminates it.
	Event = obs.Event
)

// NewBus creates a telemetry bus retaining up to capacity events
// (capacity <= 0 selects the default ring size). Pass it through
// RigOptions.Bus / MultiRigOptions.Bus or ExperimentConfig.Bus to light
// up every producer of a rig.
func NewBus(capacity int) *Bus { return obs.NewBus(capacity) }

// WritePerfettoTrace renders recorded bus events as Chrome/Perfetto
// trace-event JSON (open the file at ui.perfetto.dev).
func WritePerfettoTrace(w io.Writer, events []Event) error { return obs.WriteTrace(w, events) }

// Event kinds re-exported for Bus.Subscribe filters.
const (
	KindMigration  = obs.KindMigration
	KindTransition = obs.KindTransition
)

// Cluster tier types (internal/cluster): the single-machine mechanism
// scaled out — N lockstep simulated machines behind a sharded TPC-H
// dataset, an open-loop coordinator routing and scatter-gathering
// queries, and a second control tier moving whole cores across machines
// with an explicit migration-latency cost.
type (
	// Fleet is N lockstep machines (each a Rig) behind one Sharder.
	Fleet = cluster.Fleet
	// FleetOptions configures NewFleet.
	FleetOptions = cluster.Options
	// Sharder owns the deterministic key -> shard -> machine placement
	// (hashed shards, contiguous per-machine ranges).
	Sharder = cluster.Sharder
	// Coordinator replays an arrival process against a fleet: keyed
	// requests go to their shard's owner, unkeyed ones to the
	// least-loaded machine, every n-th as a scatter-gather over all.
	Coordinator = cluster.Coordinator
	// ClusterArbiter is the cluster-level control tier: it collects the
	// per-machine mechanisms' desired allocations and moves whole cores
	// across machines within a fleet-wide budget, charging a migration
	// latency per moved core.
	ClusterArbiter = cluster.ClusterArbiter
	// ClusterArbiterConfig assembles a ClusterArbiter.
	ClusterArbiterConfig = cluster.ClusterArbiterConfig
)

// NewFleet builds N lockstep machines, each loading its owned fraction
// of the total scale factor (the fleet as a whole stores one database).
func NewFleet(opts FleetOptions) (*Fleet, error) { return cluster.NewFleet(opts) }

// NewSharder partitions `shards` hashed shards into contiguous ranges
// across `machines` (shards >= machines >= 1).
func NewSharder(shards, machines int) (*Sharder, error) {
	return cluster.NewSharder(shards, machines)
}

// NewClusterArbiter attaches the cluster control tier to a fleet; every
// machine must run an elastic mode (the per-machine mechanisms evaluate,
// the arbiter applies).
func NewClusterArbiter(cfg ClusterArbiterConfig) (*ClusterArbiter, error) {
	return cluster.NewClusterArbiter(cfg)
}

// Fault-injection types (internal/faults, internal/cluster): the
// deterministic failure plans a fleet compiles and injects as it ticks,
// and the health monitor that detects the damage and re-homes shards.
type (
	// FaultPlan is a validated, deterministic failure schedule: machine
	// crashes with timed recovery, per-core stalls and slowdowns, and
	// degraded shard links. Pass it through FleetOptions.Faults.
	FaultPlan = faults.Plan
	// HealthMonitor is the fleet's failure detector and repair loop:
	// heartbeat-gap death detection, shard re-assignment with an
	// explicit transfer cost, brownout load-shedding and recovery.
	HealthMonitor = cluster.HealthMonitor
	// HealthConfig assembles a HealthMonitor.
	HealthConfig = cluster.HealthConfig
)

// ParseFaultPlan parses a failure-plan spec — the semicolon grammar
// ("crash m1 @2s for 1.5s; slow m0 c* x8 @1s; link m2 +0.5ms drop 0.3
// @3s for 2s; seed 42"). The empty string is the empty plan, which
// injects nothing.
func ParseFaultPlan(spec string) (*FaultPlan, error) { return faults.Parse(spec) }

// NewHealthMonitor wires heartbeat-driven failure detection onto a
// fleet: a machine whose beats stop is declared dead, its shards
// re-home onto surviving replicas (charging the transfer against the
// cluster arbiter's budget), and a recovered machine gets them back.
func NewHealthMonitor(cfg HealthConfig) (*HealthMonitor, error) {
	return cluster.NewHealthMonitor(cfg)
}

// Multi-tenant consolidation types (the paper's Section VII cloud
// setting): several tenant databases, each with its own elastic
// mechanism, share one machine under a core arbiter.
type (
	// Arbiter divides the machine's cores among tenants every control
	// period: SLA-weighted shares, starvation floors, no over-commit.
	Arbiter = tenant.Arbiter
	// SLA is a tenant's agreement: weight, core floor, traffic budget.
	SLA = tenant.SLA
	// MultiRig is a fully wired multi-tenant experiment environment.
	MultiRig = workload.MultiRig
	// TenantSpec configures one tenant of a MultiRig.
	TenantSpec = workload.TenantSpec
	// MultiRigOptions configures NewMultiRig.
	MultiRigOptions = workload.MultiOptions
	// TenantLoad describes one tenant's client streams for MultiRig.Run.
	TenantLoad = workload.TenantLoad
)

// Experiment platform types (internal/experiments): the catalogue of
// named, tagged, runnable scenarios — the paper's figures first — with
// structured results and a parallel runner.
type (
	// Experiment is one runnable evaluation artifact: Name, Title,
	// Summary, Tags and a Body, run by Run(ctx, Config, Observer). A
	// custom experiment is an Experiment literal run through a Runner.
	Experiment = experiments.Experiment
	// ExperimentConfig scales an experiment (SF, clients, seed, ...).
	ExperimentConfig = experiments.Config
	// Result is the structured outcome of a run: named tables of typed
	// columns, scalar metrics, text artifacts and run metadata; it
	// renders to text, JSON and CSV.
	Result = experiments.Result
	// Runner executes a set of experiments concurrently with a worker
	// pool, honoring context cancellation and collecting per-experiment
	// errors.
	Runner = experiments.Runner
	// Observer receives phase and progress callbacks from a running
	// experiment.
	Observer = experiments.Observer
)

// Experiments lists the catalogue in order.
func Experiments() []Experiment { return experiments.All() }

// LookupExperiment finds a catalogued experiment by name.
func LookupExperiment(name string) (Experiment, bool) { return experiments.Lookup(name) }

// ExperimentsWithTag filters the catalogue by tag.
func ExperimentsWithTag(tag string) []Experiment { return experiments.WithTag(tag) }

// Modes re-exported for rig construction.
const (
	ModeOS       = workload.ModeOS
	ModeDense    = workload.ModeDense
	ModeSparse   = workload.ModeSparse
	ModeAdaptive = workload.ModeAdaptive
	ModeNodeFill = workload.ModeNodeFill
	ModeHopMin   = workload.ModeHopMin
	ModeScatter  = workload.ModeScatter
)

// The topology zoo: machine shapes beyond the paper's testbed, for
// exercising the mechanism across interconnect geometries.

// TwoSocket returns a dual-socket machine (two 8-core nodes, one link).
func TwoSocket() *Topology { return numa.TwoSocket() }

// FourSocketRing returns four quad-core sockets on a ring interconnect
// (diagonal sockets two hops apart).
func FourSocketRing() *Topology { return numa.FourSocketRing() }

// EightSocketTwisted returns the real eight-socket Opteron's
// twisted-ladder interconnect: 3-regular, diameter two.
func EightSocketTwisted() *Topology { return numa.EightSocketTwisted() }

// EPYCLike returns a chiplet-style machine: two packages of four dies
// with asymmetric intra-package and cross-package hop distances.
func EPYCLike() *Topology { return numa.EPYCLike() }

// ParseTopology resolves a machine shape from a zoo name ("opteron",
// "2socket", "4ring", "8twisted", "epyc") or a
// "nodes x cores [@ hops...]" spec; see internal/numa.ParseTopology for
// the grammar.
func ParseTopology(spec string) (*Topology, error) { return numa.ParseTopology(spec) }

// ScaleTopology shrinks a base topology's caches and bandwidths
// proportionally to the TPC-H scale factor, preserving the paper's
// data-to-cache operating point at small SF (see workload.ScaledTopology).
func ScaleTopology(t *Topology, sf float64) *Topology { return workload.ScaleTopology(t, sf) }

// NewRig builds a complete experiment environment: a machine, an OS
// scheduler, a TPC-H-loaded store, a database engine inside a cgroup and
// (unless ModeOS) the elastic mechanism steering that cgroup.
func NewRig(opts RigOptions) (*Rig, error) { return workload.NewRig(opts) }

// NewMultiRig builds a multi-tenant environment: one machine and OS
// scheduler shared by N tenant databases — each with its own TPC-H
// dataset, engine, cgroup and elastic mechanism — consolidated under the
// core arbiter.
func NewMultiRig(opts MultiRigOptions) (*MultiRig, error) {
	return workload.NewMultiRig(opts)
}

// BuildQuery returns the plan of TPC-H query n (1..22) with seed-derived
// parameters.
func BuildQuery(n int, seed uint64) *Plan { return tpch.Build(n, seed) }
