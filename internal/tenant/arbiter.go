package tenant

import (
	"fmt"

	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
)

// AllocationEvent records one tenant's outcome of an arbitration round,
// feeding per-tenant allocation timelines.
type AllocationEvent struct {
	// Now is the virtual time of the round, in cycles.
	Now uint64
	// Tenant is the tenant name.
	Tenant string
	// Demand is what the tenant asked for after SLA refinement.
	Demand int
	// Grant is what the arbiter awarded.
	Grant int
	// Set is the cpuset actually applied.
	Set sched.CPUSet
}

// ArbiterConfig assembles an Arbiter.
type ArbiterConfig struct {
	// Scheduler is the shared OS scheduler of the machine.
	Scheduler *sched.Scheduler
	// ControlPeriod is the arbitration interval in cycles; zero selects
	// the machine's timebase control period.
	ControlPeriod uint64
}

// Arbiter consolidates tenants onto one machine. Every control period it
// collects each tenant's demand (the tenant's own PrT net desire, refined
// by LONC), apportions the machine's cores by SLA
// weight with starvation floors, and transfers cores between the tenant
// cgroups — shrink phase first so freed cores are available to growing
// tenants within the same round. The invariant it maintains: tenant
// cpusets are pairwise disjoint and their union never exceeds the machine.
type Arbiter struct {
	sch   *sched.Scheduler
	topo  *numa.Topology
	total int

	tenants  []*Tenant
	period   uint64
	nextEval uint64

	events     []AllocationEvent
	peakDemand int
	// Rounds counts arbitration rounds executed (overhead accounting).
	Rounds uint64

	// bus, when attached, receives a KindGrant event for every
	// AllocationEvent recorded; nil keeps the arbiter dark.
	bus *obs.Bus

	// scratch backs Step's five per-tenant vectors and apportion its
	// grants, kept from round to round.
	scratch   []int
	apportion Apportioner
}

// NewArbiter creates an empty arbiter over the scheduler's machine.
func NewArbiter(cfg ArbiterConfig) (*Arbiter, error) {
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("tenant: Scheduler is required")
	}
	machine := cfg.Scheduler.Machine()
	topo := machine.Topology()
	if cfg.ControlPeriod == 0 {
		cfg.ControlPeriod = machine.Timebase().ControlPeriod
	}
	return &Arbiter{
		sch:      cfg.Scheduler,
		topo:     topo,
		total:    topo.TotalCores(),
		period:   cfg.ControlPeriod,
		nextEval: machine.Now() + cfg.ControlPeriod,
	}, nil
}

// SetBus attaches the telemetry bus the arbiter publishes per-tenant
// grant events onto (nil detaches).
func (a *Arbiter) SetBus(b *obs.Bus) { a.bus = b }

// recordEvent appends one allocation outcome to the timeline and mirrors
// it onto the bus.
func (a *Arbiter) recordEvent(e AllocationEvent) {
	a.events = append(a.events, e)
	if a.bus != nil {
		a.bus.Publish(obs.Event{
			Kind:   obs.KindGrant,
			Now:    e.Now,
			Core:   -1,
			V1:     int64(e.Demand),
			V2:     int64(e.Grant),
			Set:    uint64(e.Set),
			Tenant: e.Tenant,
		})
	}
}

// Events returns the allocation timeline recorded so far: one entry per
// tenant per round in which its demand, grant or cpuset changed, so the
// timeline stays bounded by activity rather than by run length.
func (a *Arbiter) Events() []AllocationEvent { return a.events }

// PeakAggregateDemand returns the largest per-round demand sum seen so
// far — above the machine size means the tenants were contending.
func (a *Arbiter) PeakAggregateDemand() int { return a.peakDemand }

// ControlPeriod returns the arbitration interval in cycles.
func (a *Arbiter) ControlPeriod() uint64 { return a.period }

// Add places a tenant under arbitration. It validates that the aggregate
// starvation floors still fit the machine, then re-places the tenant's
// initial allocation (its SLA floor) on cores no other tenant holds,
// following the tenant's own mode order — the construction-time cpuset the
// mechanism wrote is discarded.
func (a *Arbiter) Add(t *Tenant) error {
	floors := t.SLA.MinCores
	for _, o := range a.tenants {
		if o.Name == t.Name {
			return fmt.Errorf("tenant: duplicate tenant %q", t.Name)
		}
		floors += o.SLA.MinCores
	}
	if floors > a.total {
		return fmt.Errorf("tenant: aggregate MinCores %d exceed machine cores %d", floors, a.total)
	}

	occupied := sched.CPUSet(0)
	for _, o := range a.tenants {
		occupied = occupied.Union(o.CGroup.CPUs())
	}
	if a.total-occupied.Count() < t.SLA.MinCores {
		return fmt.Errorf("tenant %s: no free core for starvation floor", t.Name)
	}
	set := t.Mech.Place(t.SLA.MinCores, occupied)
	t.grant = set.Count()
	t.demand = set.Count()
	t.lastSet = set
	a.tenants = append(a.tenants, t)
	a.recordEvent(AllocationEvent{
		Now:    a.sch.Machine().Now(),
		Tenant: t.Name,
		Demand: t.demand,
		Grant:  t.grant,
		Set:    set,
	})
	return nil
}

// Maybe runs one arbitration round if the control period has elapsed. It
// is cheap to call every scheduler tick.
func (a *Arbiter) Maybe() {
	if a.sch.Machine().Now() < a.nextEval {
		return
	}
	a.Step()
}

// Step runs one arbitration round: collect demands, apportion, transfer.
func (a *Arbiter) Step() {
	machine := a.sch.Machine()
	a.nextEval = machine.Now() + a.period
	a.Rounds++
	if len(a.tenants) == 0 {
		return
	}

	n := len(a.tenants)
	if cap(a.scratch) < 5*n {
		a.scratch = make([]int, 5*n)
	}
	s := a.scratch[:5*n]
	demand, weight, floor := s[:n], s[n:2*n], s[2*n:3*n]
	prevDemand, prevGrant := s[3*n:4*n], s[4*n:]
	sumDemand := 0
	for i, t := range a.tenants {
		prevDemand[i], prevGrant[i] = t.demand, t.grant
		// A tenant whose own control period has not elapsed keeps its
		// previous demand: the arbiter may run faster than a tenant
		// samples, but it must not shorten the tenant's windows.
		if t.Mech.Due() {
			demand[i] = t.desire()
		} else {
			demand[i] = t.demand
		}
		weight[i] = t.SLA.Weight
		floor[i] = t.SLA.MinCores
		sumDemand += demand[i]
	}
	if sumDemand > a.peakDemand {
		a.peakDemand = sumDemand
	}
	grant := a.apportion.Apportion(demand, weight, floor, a.total)

	// Shrink phase: every over-granted tenant releases down to its grant
	// through its own victim order, freeing cores for the grow phase — the
	// round's core *transfers* between cgroups.
	for i, t := range a.tenants {
		if t.CGroup.CPUs().Count() > grant[i] {
			t.Mech.Resize(grant[i], 0)
		}
	}
	occupied := sched.CPUSet(0)
	for _, t := range a.tenants {
		occupied = occupied.Union(t.CGroup.CPUs())
	}
	// Grow phase: under-granted tenants claim free cores in their own
	// mode order (dense packs sockets, sparse spreads, a placement stays
	// close to the tenant's own cores).
	for i, t := range a.tenants {
		if t.CGroup.CPUs().Count() < grant[i] {
			occupied = occupied.Union(t.Mech.Resize(grant[i], occupied))
		}
	}

	now := machine.Now()
	for i, t := range a.tenants {
		set := t.CGroup.CPUs()
		changed := demand[i] != prevDemand[i] || grant[i] != prevGrant[i] || set != t.lastSet
		t.demand = demand[i]
		t.grant = grant[i]
		t.lastSet = set
		if !changed {
			continue
		}
		a.recordEvent(AllocationEvent{
			Now:    now,
			Tenant: t.Name,
			Demand: demand[i],
			Grant:  grant[i],
			Set:    set,
		})
	}
}

// Apportion divides total cores among tenants: tenant i receives at least
// min(floor[i], demand[i]) — its starvation floor, never more than it
// wants — at most demand[i], and spare cores are distributed in proportion
// to weight[i] by largest remainder. When the aggregate demand fits the
// machine every tenant receives exactly its demand (unused cores stay with
// the provider — they are paid for as allocated). The grants always sum to
// at most total; callers must ensure the floors alone fit.
func Apportion(demand, weight, floor []int, total int) []int {
	var ap Apportioner
	return ap.Apportion(demand, weight, floor, total)
}

// Apportioner is Apportion for a caller that arbitrates every round: it
// keeps its grant vector and claim list from call to call, so a warm one
// allocates nothing.
type Apportioner struct {
	grant  []int
	claims []claim
}

// claim is a tenant still short of its demand and its weighted remainder.
type claim struct{ idx, rem int }

// Apportion is the package's Apportion, writing into the apportioner's own
// grant vector: the result is valid until the next call.
func (ap *Apportioner) Apportion(demand, weight, floor []int, total int) []int {
	n := len(demand)
	if cap(ap.grant) < n {
		ap.grant = make([]int, n)
	}
	grant := ap.grant[:n]
	remaining := total
	for i := 0; i < n; i++ {
		g := floor[i]
		if g > demand[i] {
			g = demand[i]
		}
		if g < 0 {
			g = 0
		}
		grant[i] = g
		remaining -= g
	}
	w := func(i int) int {
		if weight[i] <= 0 {
			return 1
		}
		return weight[i]
	}
	for remaining > 0 {
		// Tenants still below their demand share the remainder by weight.
		sumW := 0
		for i := 0; i < n; i++ {
			if grant[i] < demand[i] {
				sumW += w(i)
			}
		}
		if sumW == 0 {
			break // everyone satisfied; leftover stays with the provider
		}
		claims := ap.claims[:0]
		gave := 0
		for i := 0; i < n; i++ {
			if grant[i] >= demand[i] {
				continue
			}
			share := remaining * w(i) / sumW
			if max := demand[i] - grant[i]; share > max {
				share = max
			}
			grant[i] += share
			gave += share
			if grant[i] < demand[i] {
				claims = append(claims, claim{idx: i, rem: remaining * w(i) % sumW})
			}
		}
		ap.claims = claims
		remaining -= gave
		if gave > 0 {
			continue
		}
		// Fewer spare cores than claimants: hand one core by largest
		// remainder (weight-proportional), ties to the most deprived
		// tenant, then the lowest index — all deterministic.
		best := claim{idx: -1, rem: -1}
		for _, c := range claims {
			deficit := demand[c.idx] - grant[c.idx]
			bestDeficit := -1
			if best.idx >= 0 {
				bestDeficit = demand[best.idx] - grant[best.idx]
			}
			if c.rem > best.rem || (c.rem == best.rem && deficit > bestDeficit) {
				best = c
			}
		}
		if best.idx < 0 {
			break
		}
		grant[best.idx]++
		remaining--
	}
	return grant
}
