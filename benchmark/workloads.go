package main

import (
	"fmt"
	"runtime"

	"elasticore/internal/arrivals"
	"elasticore/internal/cluster"
	"elasticore/internal/db"
	"elasticore/internal/elastic"
	"elasticore/internal/faults"
	"elasticore/internal/hashmix"
	"elasticore/internal/metrics"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
	"elasticore/internal/tenant"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// workloads.go holds the five workloads. Each one is built from the
// exported constructors of internal/workload and internal/cluster and
// driven by the exported driver's Run; everything the benchmark learns
// about a layer it reads from exported results, counters and callbacks.

// A rep is one freshly constructed instance of a workload, simulated
// exactly once. Construction happens in the workload's build function and
// is never inside the timed region.
type rep interface {
	// simulate is the timed region: the driver's Run and nothing else.
	simulate()
	// result reads the exact simulated outcome after simulate.
	result() simResult
}

// workloadDef names one workload and knows how to construct a rep of it.
type workloadDef struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// build constructs one rep from the workload seed. smoke selects the
	// tiny operating point of the package test; tr may be nil.
	build func(seed uint64, smoke bool, tr *tracer) (rep, error)
}

var workloads = []workloadDef{
	{"mixed-closed", "256 closed-loop clients each run a random TPC-H query on one adaptive rig: db kernels, chunk dispatch, busy sched ticks and numa charging do the work", buildMixedClosed},
	{"burst-open", "bursty open-loop Q6 arrivals on one rig with a lit bus and probe: mostly idle quanta, a control step every few quanta, so petrinet, elastic and obs dominate", buildBurstOpen},
	{"tenants-htap", "three weighted tenants run compiled PlanSpec scans beside point lookups under the tenant arbiter: plan compilation, lookups and arbitration", buildTenantsHTAP},
	{"fleet-route", "healthy 16-machine fleet, small per-machine work: the per-quantum barrier, coordinator routing and cluster arbiter dominate", buildFleetRoute},
	{"fleet-faults", "8-machine replicated fleet under a crash, a slow machine and a lossy link: retry, hedge, failover and health-monitor paths all fire", buildFleetFaults},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// simResult is the exact simulated outcome of one repetition: everything
// in it repeats bit for bit at a fixed seed on any host.
type simResult struct {
	// Offered = Completed + Dropped + Failed + Abandoned (parent requests).
	Offered, Completed, Dropped, Failed, Abandoned int
	// ElapsedCycles is the simulated length of the phase; ClockEnd the
	// machine (or fleet) clock when it ended.
	ElapsedCycles, ClockEnd uint64
	// ElapsedSeconds is ElapsedCycles at the machine clock.
	ElapsedSeconds float64
	// MeanLatencySeconds and the quantiles (cycles) describe parent-query
	// latency as the model measured it.
	MeanLatencySeconds float64
	LatencyCount       uint64
	P50, P99, MaxLat   uint64
	// CyclesPerSecond converts the quantiles.
	CyclesPerSecond float64
	// Windows holds each machine's counter delta over the phase, Sched
	// the scheduler stats delta summed over machines.
	Windows []numa.Counters
	Sched   sched.Stats
	// PeakCores is the largest total allocation seen (in-transit cores
	// included for fleets); CoreLimit what it must not exceed.
	PeakCores, CoreLimit int
	// FinalAlloc is each machine's (or tenant's) core count at the end.
	FinalAlloc []int
	// Workers is the fleet's goroutine count (0 off a fleet). It follows
	// the host, so it stays out of Counts and out of the digest.
	Workers int
	// Counts are the per-layer simulated work counts, keyed by metric name.
	Counts map[string]float64
	// Problems lists violated workload-specific checks (empty when clean).
	Problems []string
}

func (r *simResult) htBytes() (ht, imc uint64) {
	for _, w := range r.Windows {
		ht += w.TotalHTBytes()
		imc += w.TotalIMCBytes()
	}
	return ht, imc
}

// addNumaCounts folds the counter windows into the numa.* and sched.*
// counts; quantum is the scheduler quantum in cycles.
func (r *simResult) addNumaCounts(quantum uint64) {
	var l3, faultsN, inval uint64
	for _, w := range r.Windows {
		l3 += w.TotalL3Misses()
		faultsN += w.TotalMinorFaults()
		for _, n := range w.Nodes {
			inval += n.Invalidations
		}
	}
	ht, imc := r.htBytes()
	c := r.Counts
	c["numa.l3_misses"] = float64(l3)
	c["numa.ht_mb"] = float64(ht) / 1e6
	c["numa.imc_mb"] = float64(imc) / 1e6
	c["numa.minor_faults"] = float64(faultsN)
	c["numa.invalidations"] = float64(inval)
	c["sched.quanta"] = float64(r.ElapsedCycles / quantum)
	c["sched.ticks_run"] = float64(r.Sched.TicksRun)
	c["sched.migrations"] = float64(r.Sched.Migrations)
	c["sched.cross_node_migrations"] = float64(r.Sched.CrossNodeMigrations)
	c["sched.stolen_tasks"] = float64(r.Sched.StolenTasks)
	c["sched.spawned"] = float64(r.Sched.Spawned)
}

func (r *simResult) setLatency(h *metrics.Histogram, topo *numa.Topology) {
	r.CyclesPerSecond = float64(topo.SecondsToCycles(1))
	r.LatencyCount = h.Count()
	if h.Count() == 0 {
		return
	}
	q := h.Quantiles(0.50, 0.99)
	r.P50, r.P99, r.MaxLat = q[0], q[1], h.Max()
	r.MeanLatencySeconds = h.Mean() / r.CyclesPerSecond
}

func addStats(dst *sched.Stats, s sched.Stats) {
	dst.Spawned += s.Spawned
	dst.StolenTasks += s.StolenTasks
	dst.Migrations += s.Migrations
	dst.CrossNodeMigrations += s.CrossNodeMigrations
	dst.TicksRun += s.TicksRun
}

func subStats(end, start sched.Stats) sched.Stats {
	return sched.Stats{
		Spawned:             end.Spawned - start.Spawned,
		StolenTasks:         end.StolenTasks - start.StolenTasks,
		Migrations:          end.Migrations - start.Migrations,
		CrossNodeMigrations: end.CrossNodeMigrations - start.CrossNodeMigrations,
		TicksRun:            end.TicksRun - start.TicksRun,
	}
}

// mechCounts summarizes one self-governing mechanism's timeline: control
// steps, cores added and removed, the peak and the time-weighted mean
// allocation over [start, end).
func mechCounts(m *elastic.Mechanism, initial int, start, end uint64) (steps uint64, grows, shrinks, peak int, meanCores float64) {
	cur, at := initial, start
	peak = initial
	var coreCycles float64
	for _, e := range m.Events() {
		coreCycles += float64(cur) * float64(e.Now-at)
		if e.NAlloc > cur {
			grows += e.NAlloc - cur
		} else {
			shrinks += cur - e.NAlloc
		}
		cur, at = e.NAlloc, e.Now
		if cur > peak {
			peak = cur
		}
	}
	coreCycles += float64(cur) * float64(end-at)
	if end > start {
		meanCores = coreCycles / float64(end-start)
	}
	return m.TokenFlows, grows, shrinks, peak, meanCores
}

// loadDatasets is the traced run's setup.dataset span: it loads the
// workload's datasets into a scratch store before the constructor does, so
// that dataset generation (or, on a warm cache, the lack of it) shows
// apart from the wiring in setup.build. Untraced, it does nothing.
func loadDatasets(tr *tracer, cfgs ...tpch.Config) error {
	if tr == nil {
		return nil
	}
	sp := tr.begin("setup.dataset")
	defer tr.end(sp)
	for _, cfg := range cfgs {
		if _, err := tpch.Load(db.NewStore(numa.NewMachine(workload.ScaledTopology(cfg.SF))), cfg); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// mixed-closed

type mixedClosed struct {
	rig     *workload.Rig
	clients int
	seed    uint64
	tr      *tracer

	// deal is the seeded order in which clients take the query numbers.
	deal         [tpch.QueryCount]int
	lat          metrics.Histogram
	plans        int
	initialCores int
	start        uint64
	res          workload.PhaseResult
}

func buildMixedClosed(seed uint64, smoke bool, tr *tracer) (rep, error) {
	sf, clients := 0.04, 256
	if smoke {
		sf, clients = 0.002, 24
	}
	// A 1 ms control period (the rig's default is 0.25 ms) gives a few
	// hundred control steps beside 256 heavy queries: on this workload the
	// control plane is to stay near zero.
	opts := workload.Options{SF: sf, Seed: seed, Mode: workload.ModeAdaptive, Placement: db.PlacementOS,
		ControlPeriod: workload.ScaledTopology(sf).SecondsToCycles(1e-3), Bus: tr.newBus()}
	if err := loadDatasets(tr, tpch.Config{SF: sf, Seed: seed}); err != nil {
		return nil, err
	}
	sp := tr.begin("setup.build")
	rig, err := workload.NewRig(opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	w := &mixedClosed{rig: rig, clients: clients, seed: seed, tr: tr,
		initialCores: rig.AllocatedCores(), start: rig.Machine.Now()}
	// Fisher-Yates over the query numbers, from the workload seed.
	rnd := hashmix.Stream{State: seed ^ 0xDEA1}
	for i := range w.deal {
		w.deal[i] = i + 1
	}
	for i := len(w.deal) - 1; i > 0; i-- {
		j := int(rnd.Next() % uint64(i+1))
		w.deal[i], w.deal[j] = w.deal[j], w.deal[i]
	}
	return w, nil
}

// plan deals the paper's mixed stream — every client runs one of the 22
// queries — and appends an empty trailing stage that records the query's
// latency: workload.Driver has no completion hook, and a stage with no
// tasks completes at once without touching simulated state. Unlike
// workload.RandomStream the deal is balanced: the seed shuffles the 22
// query numbers and the clients take them in turn, so every seed runs
// each query 11 or 12 times and only which client runs what, the
// parameters and the data differ. A purely random deal moved the host
// cost of a repetition by 6 % between seeds through the count of heavy
// queries alone.
func (w *mixedClosed) plan(c, k int) *db.Plan {
	sp := w.tr.begin("plan_build")
	x := hashmix.Mix64(w.seed ^ uint64(c)*0x9E3779B97F4A7C15 ^ uint64(k)*0xBF58476D1CE4E5B9)
	p := tpch.Build(w.deal[(c+k)%tpch.QueryCount], x)
	submitted := w.rig.Machine.Now()
	p.Stages = append(p.Stages, func(q *db.Query) []db.Task {
		w.lat.Record(q.Machine().Now() - submitted)
		return nil
	})
	w.plans++
	w.tr.end(sp)
	return p
}

func (w *mixedClosed) simulate() {
	d := &workload.Driver{Rig: w.rig, QueriesPerClient: 1}
	w.res = d.Run(w.clients, w.plan)
}

func (w *mixedClosed) result() simResult {
	rig, topo := w.rig, w.rig.Machine.Topology()
	r := simResult{
		Offered:        w.clients,
		Completed:      w.res.Completed,
		Abandoned:      w.clients - w.res.Completed,
		ClockEnd:       rig.Machine.Now(),
		ElapsedCycles:  rig.Machine.Now() - w.start,
		ElapsedSeconds: w.res.ElapsedSeconds,
		Windows:        []numa.Counters{w.res.Window},
		Sched:          w.res.Sched,
		CoreLimit:      topo.TotalCores(),
		FinalAlloc:     []int{rig.AllocatedCores()},
		Counts:         map[string]float64{},
	}
	r.setLatency(&w.lat, topo)
	r.MeanLatencySeconds = w.res.MeanLatencySeconds
	steps, grows, shrinks, peak, mean := mechCounts(rig.Mech, w.initialCores, w.start, r.ClockEnd)
	r.PeakCores = peak
	r.addNumaCounts(rig.Sched.Quantum())
	c := r.Counts
	c["db.queries_done"] = float64(w.res.Completed)
	c["db.tasks_done"] = float64(rig.Engine.TasksExecuted)
	c["tpch.plans_built"] = float64(w.plans)
	c["elastic.control_steps"] = float64(steps)
	c["elastic.grows"] = float64(grows)
	c["elastic.shrinks"] = float64(shrinks)
	c["elastic.mean_cores"] = mean
	c["workload.offered"] = float64(r.Offered)
	c["workload.completed"] = float64(r.Completed)
	c["workload.abandoned"] = float64(r.Abandoned)
	if uint64(w.res.Completed) != w.lat.Count() {
		r.Problems = append(r.Problems, fmt.Sprintf("latency stage saw %d completions, driver %d", w.lat.Count(), w.res.Completed))
	}
	return r
}

// ---------------------------------------------------------------------
// burst-open

type burstOpen struct {
	rig     *workload.Rig
	bus     *obs.Bus
	driver  *workload.OpenDriver
	seed    uint64
	tr      *tracer
	plans   int
	initial int
	start   uint64
	res     workload.OpenResult
}

func buildBurstOpen(seed uint64, smoke bool, tr *tracer) (rep, error) {
	const sf = 0.002
	seconds := 50.0
	if smoke {
		seconds = 1.5
	}
	if err := loadDatasets(tr, tpch.Config{SF: sf, Seed: seed}); err != nil {
		return nil, err
	}
	sp := tr.begin("setup.build")
	bus := obs.NewBus(64 << 10)
	tr.watch(bus)
	rig, err := workload.NewRig(workload.Options{
		SF: sf, Seed: seed, Mode: workload.ModeAdaptive,
		Strategy: elastic.HTIMCStrategy{}, Bus: bus,
	})
	if err == nil {
		rig.EnableProbe(rig.Machine.Topology().SecondsToCycles(1e-3))
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	w := &burstOpen{rig: rig, bus: bus, seed: seed, tr: tr,
		initial: rig.AllocatedCores(), start: rig.Machine.Now()}
	// Quiet 5 q/s, bursts of 75 q/s, about 240 quiet/burst cycles (few
	// cycles make the realized rate swing by a quarter between seeds). The
	// phase is bounded in simulated time, not in arrivals: the host cost
	// is mostly per quantum, so a fixed length keeps it the same on every
	// seed while the realized arrival count still varies with the seed.
	w.driver = &workload.OpenDriver{
		Rig:         rig,
		Process:     arrivals.NewMMPP(5, 75, 0.15, 0.06, hashmix.Mix64(seed^0xB0B57)),
		MaxInFlight: 16,
		QueueCap:    128,
		MaxSeconds:  seconds,
	}
	return w, nil
}

func (w *burstOpen) simulate() {
	w.res = w.driver.Run(func(k int) *db.Plan {
		sp := w.tr.begin("plan_build")
		p := tpch.BuildQ6(w.seed*7919 + uint64(k) + 1)
		w.plans++
		w.tr.end(sp)
		return p
	})
}

func (w *burstOpen) result() simResult {
	rig, topo, res := w.rig, w.rig.Machine.Topology(), &w.res
	r := simResult{
		Offered:        res.Offered,
		Completed:      res.Completed,
		Dropped:        res.Dropped,
		Abandoned:      res.Offered - res.Completed - res.Dropped,
		ClockEnd:       rig.Machine.Now(),
		ElapsedCycles:  rig.Machine.Now() - w.start,
		ElapsedSeconds: res.ElapsedSeconds,
		Windows:        []numa.Counters{res.Window},
		Sched:          res.Sched,
		CoreLimit:      topo.TotalCores(),
		FinalAlloc:     []int{rig.AllocatedCores()},
		Counts:         map[string]float64{},
	}
	r.setLatency(&res.Latency, topo)
	steps, grows, shrinks, peak, mean := mechCounts(rig.Mech, w.initial, w.start, r.ClockEnd)
	r.PeakCores = peak
	for _, s := range rig.Probe.Samples() {
		if s.Allocated > r.PeakCores {
			r.PeakCores = s.Allocated
		}
	}
	r.addNumaCounts(rig.Sched.Quantum())
	c := r.Counts
	c["db.queries_done"] = float64(res.Completed)
	c["db.tasks_done"] = float64(rig.Engine.TasksExecuted)
	c["tpch.plans_built"] = float64(w.plans)
	c["elastic.control_steps"] = float64(steps)
	c["elastic.grows"] = float64(grows)
	c["elastic.shrinks"] = float64(shrinks)
	c["elastic.mean_cores"] = mean
	c["workload.offered"] = float64(res.Offered)
	c["workload.completed"] = float64(res.Completed)
	c["workload.dropped"] = float64(res.Dropped)
	c["workload.abandoned"] = float64(r.Abandoned)
	c["workload.peak_queue"] = float64(res.PeakQueueDepth)
	c["obs.events_total"] = float64(w.bus.Total())
	c["obs.events_dropped"] = float64(w.bus.Dropped())
	return r
}

// ---------------------------------------------------------------------
// tenants-htap

type tenantsHTAP struct {
	rig     *workload.MultiRig
	loads   []workload.TenantLoad
	mixers  []tpch.HTAPMixer
	tr      *tracer
	clients int
	queries int

	lat            metrics.Histogram
	plans          int
	lookups, scans int
	start          uint64
	startSnap      numa.Counters
	res            *workload.MultiPhaseResult
	err            error
}

func buildTenantsHTAP(seed uint64, smoke bool, tr *tracer) (rep, error) {
	// 16 queries per client at SF 0.01 rather than 8 at SF 0.02: the
	// mixer deals classes and shapes by hash, and twice the draws halve
	// the variance of a repetition's cost between seeds.
	sf, clients, queries := 0.01, 64, 16
	if smoke {
		sf, clients, queries = 0.002, 8, 2
	}
	weights := []int{4, 2, 1}
	specs := make([]workload.TenantSpec, len(weights))
	for i, wt := range weights {
		specs[i] = workload.TenantSpec{
			Name: fmt.Sprintf("tenant%d", i),
			SF:   sf,
			Seed: seed*31 + uint64(i),
			Mode: workload.ModeDense,
			SLA:  tenant.SLA{Weight: wt, MinCores: 1},
		}
	}
	cfgs := make([]tpch.Config, len(specs))
	for i, s := range specs {
		cfgs[i] = tpch.Config{SF: s.SF, Seed: s.Seed}
	}
	if err := loadDatasets(tr, cfgs...); err != nil {
		return nil, err
	}
	sp := tr.begin("setup.build")
	rig, err := workload.NewMultiRig(workload.MultiOptions{Tenants: specs, Bus: tr.newBus()})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	w := &tenantsHTAP{rig: rig, tr: tr, clients: clients, queries: queries,
		start: rig.Machine.Now(), startSnap: rig.Machine.Snapshot()}
	for i, t := range rig.Tenants {
		mixer := tpch.HTAPMixer{
			Store:       t.Store,
			OrderRows:   t.Dataset.Sizes.Orders,
			Seed:        seed*131 + uint64(i),
			LookupRatio: 0.75,
		}
		w.mixers = append(w.mixers, mixer)
		w.loads = append(w.loads, workload.TenantLoad{
			Clients:          clients,
			QueriesPerClient: queries,
			Plan: func(c, k int) *db.Plan {
				sp := w.tr.begin("plan_build")
				p := mixer.Plan(c, k)
				w.plans++
				w.tr.end(sp)
				return p
			},
			OnDone: func(c, k int, q *db.Query) {
				sp := w.tr.begin("on_done")
				w.lat.Record(q.ElapsedCycles())
				if mixer.IsLookup(c, k) {
					w.lookups++
				} else {
					w.scans++
				}
				w.tr.end(sp)
			},
		})
	}
	return w, nil
}

func (w *tenantsHTAP) simulate() { w.res, w.err = w.rig.Run(w.loads, 0, 0) }

func (w *tenantsHTAP) result() simResult {
	rig, topo := w.rig, w.rig.Machine.Topology()
	offered := len(w.loads) * w.clients * w.queries
	r := simResult{
		Offered:       offered,
		ClockEnd:      rig.Machine.Now(),
		ElapsedCycles: rig.Machine.Now() - w.start,
		CoreLimit:     topo.TotalCores(),
		Counts:        map[string]float64{},
	}
	if w.err != nil || w.res == nil {
		r.Problems = append(r.Problems, fmt.Sprintf("MultiRig.Run: %v", w.err))
		return r
	}
	r.ElapsedSeconds = w.res.ElapsedSeconds
	r.PeakCores = w.res.PeakTotalCores
	var steps uint64
	mean := 0.0
	for i, t := range w.res.Tenants {
		r.Completed += t.Completed
		mean += t.MeanCores
		r.FinalAlloc = append(r.FinalAlloc, rig.Tenants[i].Allocated().Count())
		steps += rig.Tenants[i].Mech.TokenFlows
	}
	r.Abandoned = offered - r.Completed
	r.Windows = []numa.Counters{w.res.Tenants[0].Window}
	r.Sched = w.res.Tenants[0].Sched
	r.setLatency(&w.lat, topo)
	r.addNumaCounts(rig.Sched.Quantum())
	// Cores added and removed, from the arbiter's per-tenant timeline.
	held := map[string]int{}
	for _, t := range rig.Tenants {
		held[t.Name] = t.SLA.MinCores
	}
	grows, shrinks := 0, 0
	for _, e := range rig.Arbiter.Events() {
		n := e.Set.Count()
		if d := n - held[e.Tenant]; d > 0 {
			grows += d
		} else {
			shrinks -= d
		}
		held[e.Tenant] = n
	}
	var tasks uint64
	for _, t := range rig.Tenants {
		tasks += t.Engine.TasksExecuted
	}
	c := r.Counts
	c["db.queries_done"] = float64(r.Completed)
	c["db.lookups_done"] = float64(w.lookups)
	c["db.scans_done"] = float64(w.scans)
	c["db.tasks_done"] = float64(tasks)
	c["tpch.plans_built"] = float64(w.plans)
	c["elastic.control_steps"] = float64(steps)
	c["elastic.grows"] = float64(grows)
	c["elastic.shrinks"] = float64(shrinks)
	c["elastic.mean_cores"] = mean
	c["tenant.grants"] = float64(len(rig.Arbiter.Events()))
	c["tenant.peak_total_cores"] = float64(w.res.PeakTotalCores)
	c["workload.offered"] = float64(offered)
	c["workload.completed"] = float64(r.Completed)
	c["workload.abandoned"] = float64(r.Abandoned)
	if w.lookups+w.scans != r.Completed {
		r.Problems = append(r.Problems, fmt.Sprintf("on_done saw %d completions, driver %d", w.lookups+w.scans, r.Completed))
	}
	return r
}

// ---------------------------------------------------------------------
// fleet-route and fleet-faults

type fleetRun struct {
	fleet  *cluster.Fleet
	coord  *cluster.Coordinator
	arb    *cluster.ClusterArbiter
	health *cluster.HealthMonitor
	tr     *tracer

	lat       metrics.Histogram
	plans     int
	outcomes  int
	start     uint64
	startSnap []numa.Counters
	startStat []sched.Stats
	initial   []int
	res       cluster.Result

	// Fault bookkeeping (health-monitored fleets only): fault edges seen on
	// the bus and completions published by a machine while it was crashed.
	edges        int
	down         []bool
	doneWhenDown int
}

// uniformKeys is a seeded uniform-over-shards routing-key stream.
func uniformKeys(sh *cluster.Sharder, seed uint64) func(k int) uint64 {
	return func(k int) uint64 {
		shard := int(hashmix.Mix64(seed^uint64(k+1)) % uint64(sh.Shards()))
		return sh.KeyForShard(shard, seed+uint64(k))
	}
}

// fleetSpec sizes one fleet workload.
type fleetSpec struct {
	machines, shards, replicas int
	sf, rate                   float64
	// seconds bounds the run in simulated time. The host cost is mostly
	// per quantum, so a fixed length keeps it the same on every seed; the
	// arrival count varies with the seed around rate * seconds.
	seconds                 float64
	sessions                int
	plan                    string // fault plan ("" = healthy)
	health                  bool
	timeout, backoff, hedge float64
	retries                 int
}

// buildFleet constructs the fleet inside one setup.build span: the
// per-machine datasets are generated inside cluster.NewFleet, so for the
// fleet workloads that span includes dataset generation.
func buildFleet(seed uint64, spec fleetSpec, tr *tracer) (rep, error) {
	sp := tr.begin("setup.build")
	w, err := newFleetRun(seed, spec, tr)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return w, nil
}

func newFleetRun(seed uint64, spec fleetSpec, tr *tracer) (*fleetRun, error) {
	plan, err := faults.Parse(spec.plan)
	if err != nil {
		return nil, err
	}
	opts := cluster.Options{
		Machines: spec.machines,
		Shards:   spec.shards,
		Replicas: spec.replicas,
		SF:       spec.sf,
		Seed:     seed,
		Mode:     workload.ModeDense,
		Topology: workload.ScaledTopology(spec.sf),
		Faults:   plan,
		Workers:  runtime.GOMAXPROCS(0),
	}
	if !spec.health {
		// A health-monitored fleet lights its own bus for the heartbeats;
		// a dark one gets the tracer's for the traced repetitions.
		opts.Bus = tr.newBus()
	}
	f, err := cluster.NewFleet(opts)
	if err != nil {
		return nil, err
	}
	topo := f.Rigs[0].Machine.Topology()
	w := &fleetRun{fleet: f, tr: tr, start: f.Now()}
	w.arb, err = cluster.NewClusterArbiter(cluster.ClusterArbiterConfig{
		Fleet:         f,
		Budget:        spec.machines * topo.TotalCores() * 3 / 4,
		ControlPeriod: topo.SecondsToCycles(1e-3),
	})
	if err != nil {
		return nil, err
	}
	if spec.health {
		w.health, err = cluster.NewHealthMonitor(cluster.HealthConfig{
			Fleet:           f,
			HeartbeatEvery:  topo.SecondsToCycles(1e-3),
			TransferLatency: topo.SecondsToCycles(8e-3),
			BrownoutCap:     4 * spec.sessions,
		})
		if err != nil {
			return nil, err
		}
	}
	if w.health != nil {
		// The health monitor lit a bus for its heartbeats; two cheap
		// subscribers let the operation check prove that a crashed
		// machine completes nothing.
		tr.watch(f.Bus)
		w.down = make([]bool, spec.machines)
		f.Bus.Subscribe(obs.KindFault, func(e obs.Event) {
			w.edges++
			switch e.Label {
			case "crash":
				w.down[e.Machine] = true
			case "recover":
				w.down[e.Machine] = false
			}
		})
		f.Bus.Subscribe(obs.KindQueryDone, func(e obs.Event) {
			if w.down[e.Machine] {
				w.doneWhenDown++
			}
		})
	}
	keys := uniformKeys(f.Sharder, hashmix.Mix64(seed^0x6B657973))
	w.coord = &cluster.Coordinator{
		Fleet:   f,
		Process: arrivals.NewPoisson(spec.rate, hashmix.Mix64(seed^0xA881)),
		Keys: func(k int) uint64 {
			sp := w.tr.begin("keys")
			key := keys(k)
			w.tr.end(sp)
			return key
		},
		ScatterEvery: 8,
		Build: func(id uint64) *db.Plan {
			sp := w.tr.begin("plan_build")
			p := tpch.BuildQ6(seed*7919 + id + 1)
			w.plans++
			w.tr.end(sp)
			return p
		},
		MaxInFlight:       spec.sessions,
		QueueCap:          8 * spec.sessions,
		MaxSeconds:        spec.seconds,
		TimeoutSeconds:    spec.timeout,
		BackoffSeconds:    spec.backoff,
		MaxRetries:        spec.retries,
		HedgeAfterSeconds: spec.hedge,
		OnOutcome: func(_, latency uint64, ok bool) {
			sp := w.tr.begin("on_done")
			w.outcomes++
			if ok {
				w.lat.Record(latency)
			}
			w.tr.end(sp)
		},
	}
	for _, r := range f.Rigs {
		w.startSnap = append(w.startSnap, r.Machine.Snapshot())
		w.startStat = append(w.startStat, r.Sched.Stats())
		w.initial = append(w.initial, r.AllocatedCores())
	}
	return w, nil
}

func buildFleetRoute(seed uint64, smoke bool, tr *tracer) (rep, error) {
	// 250 req/s over 16 machines leaves most quanta with nothing to run
	// but the barrier, the coordinator loop and the arbiter.
	spec := fleetSpec{machines: 16, shards: 32, replicas: 1, sf: 0.016,
		rate: 250, seconds: 4, sessions: 8}
	if smoke {
		spec.machines, spec.shards, spec.sf, spec.seconds = 4, 8, 0.004, 0.25
	}
	return buildFleet(seed, spec, tr)
}

func buildFleetFaults(seed uint64, smoke bool, tr *tracer) (rep, error) {
	spec := fleetSpec{machines: 8, shards: 16, replicas: 2, sf: 0.032,
		rate: 400, seconds: 2.25, sessions: 8, health: true,
		timeout: 9e-3, backoff: 2e-3, hedge: 5e-3, retries: 4}
	if smoke {
		spec.machines, spec.shards, spec.sf, spec.seconds = 4, 8, 0.008, 0.16
	}
	// Machine 1 is down for the middle third of the run.
	spec.plan = fmt.Sprintf("crash m1 @%.6fs for %.6fs; slow m2 c* x4 @0s; link m3 +0.5ms drop 0.2 @0s",
		spec.seconds/3, spec.seconds/3)
	return buildFleet(seed, spec, tr)
}

func (w *fleetRun) simulate() { w.res = w.coord.Run() }

func (w *fleetRun) result() simResult {
	f, res := w.fleet, &w.res
	topo := f.Rigs[0].Machine.Topology()
	r := simResult{
		Offered:        res.Offered,
		Completed:      res.Completed,
		Dropped:        res.Dropped,
		Failed:         res.Failed,
		Abandoned:      res.Abandoned,
		ClockEnd:       f.Now(),
		ElapsedCycles:  f.Now() - w.start,
		ElapsedSeconds: res.ElapsedSeconds,
		CoreLimit:      w.arb.Budget(),
		FinalAlloc:     f.AllocatedCores(),
		Workers:        f.Opts.Workers,
		Counts:         map[string]float64{},
	}
	r.setLatency(&res.Latency, topo)
	var tasks uint64
	var steps uint64
	subDone, peakQueue := 0, 0
	for m, rig := range f.Rigs {
		r.Windows = append(r.Windows, rig.Machine.Snapshot().Sub(w.startSnap[m]))
		addStats(&r.Sched, subStats(rig.Sched.Stats(), w.startStat[m]))
		tasks += rig.Engine.TasksExecuted
		steps += rig.Mech.TokenFlows
		subDone += res.PerMachine[m].Completed
		if q := res.PerMachine[m].PeakQueueDepth; q > peakQueue {
			peakQueue = q
		}
	}
	// Replay the arbiter's grant timeline: the granted total (in-transit
	// cores count against their destination) must never pass the budget.
	grant := append([]int(nil), w.initial...)
	total := 0
	for _, g := range grant {
		total += g
	}
	r.PeakCores = total
	grows, shrinks := 0, 0
	coreCycles, at := 0.0, w.start
	events := w.arb.Events()
	for i, e := range events {
		coreCycles += float64(total) * float64(e.Now-at)
		at = e.Now
		total += e.Target - grant[e.Machine]
		grant[e.Machine] = e.Target
		if e.Delta > 0 {
			grows += e.Delta
		} else {
			shrinks -= e.Delta
		}
		// A round's events share one timestamp; judge the total after it.
		if (i+1 == len(events) || events[i+1].Now != e.Now) && total > r.PeakCores {
			r.PeakCores = total
		}
	}
	coreCycles += float64(total) * float64(r.ClockEnd-at)
	held := w.arb.InTransit()
	for _, n := range r.FinalAlloc {
		held += n
	}
	if held > r.PeakCores {
		r.PeakCores = held
	}
	r.addNumaCounts(f.Rigs[0].Sched.Quantum())
	c := r.Counts
	c["db.queries_done"] = float64(subDone)
	c["db.tasks_done"] = float64(tasks)
	c["tpch.plans_built"] = float64(w.plans)
	c["elastic.control_steps"] = float64(steps)
	c["elastic.grows"] = float64(grows)
	c["elastic.shrinks"] = float64(shrinks)
	if r.ElapsedCycles > 0 {
		c["elastic.mean_cores"] = coreCycles / float64(r.ElapsedCycles)
	}
	c["workload.offered"] = float64(res.Offered)
	c["workload.completed"] = float64(res.Completed)
	c["workload.dropped"] = float64(res.Dropped)
	c["workload.abandoned"] = float64(res.Abandoned)
	c["workload.peak_queue"] = float64(peakQueue)
	c["cluster.routed_keyed"] = float64(res.RoutedKeyed)
	c["cluster.scattered"] = float64(res.Scattered)
	c["cluster.retried"] = float64(res.Retried)
	c["cluster.hedged"] = float64(res.Hedged)
	c["cluster.failovers"] = float64(res.Failovers)
	c["cluster.failed"] = float64(res.Failed)
	c["cluster.wire_dropped"] = float64(res.WireDropped)
	c["cluster.moved_cores"] = float64(w.arb.MovedCores)
	if w.health != nil {
		c["obs.events_total"] = float64(f.Bus.Total())
		c["obs.events_dropped"] = float64(f.Bus.Dropped())
		c["faults.edges_applied"] = float64(w.edges)
		c["cluster.reassigned"] = float64(w.health.Reassigned)
		c["cluster.deaths"] = float64(w.health.Deaths)
		c["cluster.recoveries"] = float64(w.health.Recoveries)
	}

	if got := res.Completed + res.Dropped + res.Failed; w.outcomes != got {
		r.Problems = append(r.Problems, fmt.Sprintf("OnOutcome saw %d resolutions, result %d", w.outcomes, got))
	}
	if w.health == nil {
		// On a clean healthy run every scatter merges one part per machine.
		want := (res.Completed - res.Scattered) + res.Scattered*len(f.Rigs)
		if res.Dropped == 0 && res.Failed == 0 && res.Abandoned == 0 && subDone != want {
			r.Problems = append(r.Problems, fmt.Sprintf("scatter merge: %d sub-queries done, want %d", subDone, want))
		}
		return r
	}
	if res.Completed*100 < res.Offered*85 {
		r.Problems = append(r.Problems, fmt.Sprintf("only %d of %d offered completed (< 85%%)", res.Completed, res.Offered))
	}
	if ft := res.Retried + res.Hedged + res.Failovers; ft*100 < res.Offered*5 {
		r.Problems = append(r.Problems, fmt.Sprintf("retried+hedged+failovers = %d, under 5%% of %d offered", ft, res.Offered))
	}
	if w.health.Deaths < 1 || w.health.Recoveries < 1 {
		r.Problems = append(r.Problems, fmt.Sprintf("deaths %d, recoveries %d: want at least one of each", w.health.Deaths, w.health.Recoveries))
	}
	if w.doneWhenDown > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%d completions attributed to a crashed machine", w.doneWhenDown))
	}
	return r
}
