package workload

import (
	"fmt"

	"elasticore/internal/db"
	"elasticore/internal/elastic"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
	"elasticore/internal/tenant"
	"elasticore/internal/tpch"
)

// TenantSpec configures one tenant of a MultiRig: an independent database
// with its own TPC-H dataset, engine, cgroup, allocation mode and SLA.
type TenantSpec struct {
	// Name identifies the tenant (cgroup name, report rows).
	Name string
	// SF is the tenant's TPC-H scale factor (default 0.005).
	SF float64
	// Seed varies the tenant's dataset and workload (default: tenant
	// index + 1).
	Seed uint64
	// Mode is the tenant's allocation mode, any but ModeOS: a
	// consolidated tenant always runs under its own mechanism, so the zero
	// value selects ModeDense.
	Mode Mode
	// SLA is the tenant's agreement (defaults: weight 1, min 1 core).
	SLA tenant.SLA
	// Placement selects the tenant's engine flavour.
	Placement db.Placement
	// Strategy overrides the tenant's state-transition metric
	// (default CPU load).
	Strategy elastic.Strategy
}

// MultiOptions configures NewMultiRig.
type MultiOptions struct {
	// Tenants describes the consolidated databases (at least one).
	Tenants []TenantSpec
	// Topology overrides the machine shape; the default scales the
	// Opteron testbed to the tenants' aggregate scale factor.
	Topology *numa.Topology
	// Bus, when set, is attached to the shared scheduler and arbiter and
	// to every tenant's engine and mechanism, labelling per-tenant events
	// with the tenant name.
	Bus *obs.Bus
}

// TenantRig is one consolidated tenant: the arbitrated Tenant plus its
// private store, dataset and engine.
type TenantRig struct {
	*tenant.Tenant
	Spec    TenantSpec
	Store   *db.Store
	Engine  *db.Engine
	Dataset *tpch.Dataset
	// PID is the tenant's simulated server process id.
	PID int
}

// MultiRig consolidates several tenant databases onto one machine under a
// core arbiter — the multi-tenant counterpart of Rig.
type MultiRig struct {
	Machine *numa.Machine
	Sched   *sched.Scheduler
	Arbiter *tenant.Arbiter
	Tenants []*TenantRig
	Opts    MultiOptions
	// Bus is the telemetry bus attached to the rig's producers; nil when
	// the rig runs dark.
	Bus *obs.Bus
}

// NewMultiRig builds the shared machine and scheduler, then one store,
// dataset, engine, cgroup and arbitrated tenant per spec.
func NewMultiRig(opts MultiOptions) (*MultiRig, error) {
	if len(opts.Tenants) == 0 {
		return nil, fmt.Errorf("workload: at least one tenant is required")
	}
	aggregateSF := 0.0
	for i := range opts.Tenants {
		if opts.Tenants[i].SF == 0 {
			opts.Tenants[i].SF = 0.005
		}
		if opts.Tenants[i].Seed == 0 {
			opts.Tenants[i].Seed = uint64(i + 1)
		}
		if opts.Tenants[i].Name == "" {
			opts.Tenants[i].Name = fmt.Sprintf("tenant%d", i)
		}
		if opts.Tenants[i].Mode == ModeOS {
			opts.Tenants[i].Mode = ModeDense
		}
		aggregateSF += opts.Tenants[i].SF
	}
	machine, sc := newMachine(opts.Topology, aggregateSF)
	arb, err := tenant.NewArbiter(tenant.ArbiterConfig{Scheduler: sc})
	if err != nil {
		return nil, err
	}
	m := &MultiRig{Machine: machine, Sched: sc, Arbiter: arb, Opts: opts}
	if opts.Bus != nil {
		m.Bus = opts.Bus
		sc.SetBus(opts.Bus)
		arb.SetBus(opts.Bus)
	}

	for i, spec := range opts.Tenants {
		pid := DBMSPID + i
		srv, err := newServer(sc, spec.Name, pid, spec.SF, spec.Seed, spec.Placement)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", spec.Name, err)
		}
		alloc, err := allocatorFor(spec.Mode, machine.Topology(), func() elastic.ResidencyFunc {
			// Each tenant is steered toward the sockets holding *its* data.
			return func() []int { return machine.Residency(srv.group.PIDs()) }
		})
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", spec.Name, err)
		}
		tn, err := tenant.New(tenant.Config{
			Name:      spec.Name,
			Scheduler: sc,
			CGroup:    srv.group,
			Allocator: alloc,
			Strategy:  spec.Strategy,
			SLA:       spec.SLA,
		})
		if err != nil {
			return nil, err
		}
		if err := arb.Add(tn); err != nil {
			return nil, err
		}
		if opts.Bus != nil {
			srv.engine.SetBus(opts.Bus, spec.Name)
			tn.Mech.SetBus(opts.Bus, spec.Name)
		}
		m.Tenants = append(m.Tenants, &TenantRig{
			Tenant:  tn,
			Spec:    spec,
			Store:   srv.store,
			Engine:  srv.engine,
			Dataset: srv.dataset,
			PID:     pid,
		})
	}
	return m, nil
}

// Tick advances the rig by one scheduler quantum, running the arbitration
// loop when due.
func (m *MultiRig) Tick() {
	m.Sched.Tick()
	m.Arbiter.Maybe()
}

// TenantLoad describes one tenant's client streams for MultiRig.Run.
type TenantLoad struct {
	// Clients is the number of concurrent client streams.
	Clients int
	// QueriesPerClient is each stream's length (default 1).
	QueriesPerClient int
	// Plan supplies the k-th query of client c; nil ends the stream.
	Plan PlanFor
	// OnDone, when non-nil, observes each finished query before release
	// (per-class accounting in heterogeneous mixes).
	OnDone QueryDone
}

// TenantPhaseResult is one tenant's outcome of a consolidated phase.
type TenantPhaseResult struct {
	// Tenant is the tenant name.
	Tenant string
	PhaseResult
	// MinCores, MaxCores, MeanCores summarize the tenant's allocation
	// over the phase (sampled every tick).
	MinCores, MaxCores int
	MeanCores          float64
}

// MultiPhaseResult is the outcome of one consolidated phase.
type MultiPhaseResult struct {
	// Tenants holds per-tenant results, in rig order.
	Tenants []TenantPhaseResult
	// ElapsedSeconds is the phase's virtual wall time.
	ElapsedSeconds float64
	// PeakTotalCores is the largest number of cores held by all tenants
	// together at any tick — never above the machine size if the arbiter
	// honours its invariant.
	PeakTotalCores int
	// MachineCores is the machine size, for over-commit checks.
	MachineCores int
}

// Run drives every tenant's client streams concurrently over the shared
// machine — each client submits its next query as soon as the previous one
// finishes — and returns per-tenant summaries. sampleEvery > 0 records
// per-tenant allocation timelines at that virtual-time interval;
// maxSeconds bounds the phase (default 600 virtual seconds).
func (m *MultiRig) Run(loads []TenantLoad, sampleEvery, maxSeconds float64) (*MultiPhaseResult, error) {
	if len(loads) != len(m.Tenants) {
		return nil, fmt.Errorf("workload: %d loads for %d tenants", len(loads), len(m.Tenants))
	}
	tenants := make([]closedTenant, len(loads))
	for i, tr := range m.Tenants {
		if loads[i].Clients < 0 {
			return nil, fmt.Errorf("workload: tenant %s has %d clients", tr.Name, loads[i].Clients)
		}
		allocated := func() int { return tr.Allocated().Count() }
		tenants[i] = closedTenant{name: tr.Name, engine: tr.Engine, allocated: allocated, load: loads[i]}
	}
	return closedLoop(m.Tick, m.Machine, m.Sched, tenants, sampleEvery, maxSeconds), nil
}

// closedTenant is one tenant of closedLoop: the engine its clients submit
// to, its current core count, and its client streams.
type closedTenant struct {
	name      string
	engine    *db.Engine
	allocated func() int
	load      TenantLoad
}

// tenantStreams is closedLoop's state of one tenant: its clients' streams,
// what they completed, and its allocation over the phase.
type tenantStreams struct {
	closedTenant
	length     int
	clients    []stream
	completed  int
	latencySum float64
	// allocation statistics, sampled every tick
	minCores, maxCores int
	coreTicks          uint64
	samples            []Sample
}

// active reports whether any stream still has a query in flight or left
// to submit.
func (st *tenantStreams) active() bool {
	for c := range st.clients {
		if st.clients[c].cur != nil || st.clients[c].next < st.length {
			return true
		}
	}
	return false
}

// pump collects each finished query — counted, shown to OnDone, then
// released so its pooled buffers feed the next submissions — and submits
// each idle client's next query. A nil plan here uses up its slot without
// a query; a nil first plan (see closedLoop) ends the stream.
func (st *tenantStreams) pump(topo *numa.Topology) {
	for c := range st.clients {
		cs := &st.clients[c]
		if cs.cur != nil && cs.cur.Done() {
			st.completed++
			st.latencySum += topo.CyclesToSeconds(cs.cur.ElapsedCycles())
			if st.load.OnDone != nil {
				st.load.OnDone(c, cs.next-1, cs.cur)
			}
			st.engine.Release(cs.cur)
			cs.cur = nil
		}
		if cs.cur == nil && cs.next < st.length {
			if p := st.load.Plan(c, cs.next); p != nil {
				cs.cur = st.engine.Submit(p)
			}
			cs.next++
		}
	}
}

// closedLoop is the paper's execution protocol and the one closed traffic
// loop behind Driver.Run and MultiRig.Run: every client of every tenant
// submits its next query as soon as its previous one finishes. Each pass
// ticks the machine one quantum, pumps every tenant's streams and reads
// its allocation, until no stream is active or maxSeconds (default 600
// virtual seconds) have passed; sampleEvery > 0 records timeline samples
// at that virtual-time interval.
func closedLoop(tick func(), machine *numa.Machine, sc *sched.Scheduler, tenants []closedTenant, sampleEvery, maxSeconds float64) *MultiPhaseResult {
	topo := machine.Topology()
	states := make([]tenantStreams, len(tenants))
	peakTotal := 0
	for i, tn := range tenants {
		st := &states[i]
		st.closedTenant = tn
		st.length = max(tn.load.QueriesPerClient, 1)
		st.clients = make([]stream, tn.load.Clients)
		for c := range st.clients {
			st.clients[c].next = st.length // nothing to run
			if tn.load.Plan != nil {
				if p := tn.load.Plan(c, 0); p != nil {
					st.clients[c] = stream{cur: tn.engine.Submit(p), next: 1}
				}
			}
		}
		n := tn.allocated()
		st.minCores, st.maxCores = n, n
		peakTotal += n
	}
	active := func() bool {
		for i := range states {
			if states[i].active() {
				return true
			}
		}
		return false
	}

	startTime := machine.NowSeconds()
	startSnap := machine.Snapshot()
	startStats := sc.Stats()
	// The clock walks the quantum grid from here, so the grid deadline ends
	// the phase on the quantum a per-quantum float test would.
	deadline := phaseEnd(topo, machine.Now(), sc.Quantum(), maxSeconds)
	lastSample, sampleSnap := startTime, startSnap
	ticks := uint64(0)
	for active() && machine.Now() < deadline {
		tick()
		ticks++
		total := 0
		for i := range states {
			st := &states[i]
			st.pump(topo)
			n := st.allocated()
			st.minCores, st.maxCores = min(st.minCores, n), max(st.maxCores, n)
			st.coreTicks += uint64(n)
			total += n
		}
		peakTotal = max(peakTotal, total)
		if sampleEvery > 0 && machine.NowSeconds()-lastSample >= sampleEvery {
			snap := machine.Snapshot()
			for i := range states {
				states[i].samples = append(states[i].samples, Sample{
					AtSeconds: machine.NowSeconds() - startTime,
					Window:    snap.Sub(sampleSnap),
					Allocated: states[i].allocated(),
				})
			}
			sampleSnap, lastSample = snap, machine.NowSeconds()
		}
	}

	res := &MultiPhaseResult{
		ElapsedSeconds: machine.NowSeconds() - startTime,
		PeakTotalCores: peakTotal,
		MachineCores:   topo.TotalCores(),
	}
	// Hardware counters and scheduler stats are machine-wide; their
	// deltas are shared by all tenants rather than attributed per tenant.
	window := machine.Snapshot().Sub(startSnap)
	stats := schedDelta(startStats, sc.Stats())
	for i := range states {
		st := &states[i]
		pr := PhaseResult{
			ElapsedSeconds: res.ElapsedSeconds,
			Completed:      st.completed,
			Window:         window,
			Sched:          stats,
			Samples:        st.samples,
		}
		if pr.ElapsedSeconds > 0 {
			pr.Throughput = float64(pr.Completed) / pr.ElapsedSeconds
		}
		if pr.Completed > 0 {
			pr.MeanLatencySeconds = st.latencySum / float64(pr.Completed)
		}
		tpr := TenantPhaseResult{Tenant: st.name, PhaseResult: pr, MinCores: st.minCores, MaxCores: st.maxCores}
		if ticks > 0 {
			tpr.MeanCores = float64(st.coreTicks) / float64(ticks)
		}
		res.Tenants = append(res.Tenants, tpr)
		st.engine.Drain()
	}
	return res
}
