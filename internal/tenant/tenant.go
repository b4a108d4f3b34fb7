// Package tenant consolidates multiple independent databases — each with
// its own cgroup and elastic allocation mechanism — onto one NUMA machine,
// the cloud setting the paper sketches as future work (Section VII): cores
// are paid-for resources governed by service-level agreements, and a
// machine-level Arbiter resolves contention when the tenants' aggregate
// demand exceeds the hardware.
//
// Each Tenant keeps the paper's mechanism intact: its PrT net still
// classifies the tenant's state every control period and asks for one core
// more or less. The difference from the single-tenant setting is that the
// net's desire is no longer applied directly; the Arbiter collects every
// tenant's demand, apportions the machine by SLA weight with starvation
// floors, and transfers cores between the cgroups honoring each tenant's
// allocation-mode placement (dense tenants stay socket-packed, sparse
// tenants stay spread).
package tenant

import (
	"fmt"
	"math"

	"elasticore/internal/elastic"
	"elasticore/internal/numa"
	"elasticore/internal/petrinet"
	"elasticore/internal/sched"
)

// SLA is a tenant's service-level agreement: how much of the machine it is
// entitled to when tenants compete, and the floor below which it must
// never be squeezed.
type SLA struct {
	// Weight is the tenant's proportional share under contention
	// (default 1): above the floors, spare cores are divided in
	// proportion to weight.
	Weight int
	// MinCores is the starvation floor (default 1): the tenant keeps at
	// least this many cores no matter how hard the machine is contended.
	MinCores int
}

func (s SLA) withDefaults() SLA {
	if s.Weight <= 0 {
		s.Weight = 1
	}
	if s.MinCores <= 0 {
		s.MinCores = 1
	}
	return s
}

// Config assembles a Tenant.
type Config struct {
	// Name identifies the tenant (cgroup naming, reports).
	Name string
	// Scheduler is the shared OS scheduler of the machine.
	Scheduler *sched.Scheduler
	// CGroup is the tenant's control group; it must already contain the
	// tenant's DBMS PIDs.
	CGroup *sched.CGroup
	// Allocator is the tenant's allocation mode (dense, sparse,
	// adaptive); it decides *where* the tenant's cores live.
	Allocator elastic.Allocator
	// Strategy is the state-transition metric (default CPU load).
	Strategy elastic.Strategy
	// SLA is the tenant's agreement (defaults: weight 1, min 1 core).
	SLA SLA
	// ControlPeriod is the mechanism sampling interval in cycles; zero
	// selects the mechanism default (50 ms at the machine clock).
	ControlPeriod uint64
}

// Tenant is one consolidated database: a cgroup, the elastic mechanism
// steering it, and the SLA the arbiter enforces on its behalf.
type Tenant struct {
	Name string
	SLA  SLA
	// CGroup is the tenant's cpuset-bearing control group.
	CGroup *sched.CGroup
	// Mech is the tenant's own elastic mechanism; under arbitration it is
	// evaluated via DesiredStep, and the arbiter's grants reach the cgroup
	// through its Resize.
	Mech *elastic.Mechanism

	topo *numa.Topology

	// demand and grant are the last arbitration round's values; lastSet
	// is the cpuset of the tenant's last recorded AllocationEvent.
	demand, grant int
	lastSet       sched.CPUSet
}

// New wires a tenant: it builds the mechanism over the tenant's cgroup and
// allocator. The cpuset the mechanism writes at construction is
// provisional — Arbiter.Add immediately re-places the tenant on cores no
// other tenant holds.
func New(cfg Config) (*Tenant, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("tenant: Name is required")
	}
	if cfg.Scheduler == nil || cfg.CGroup == nil {
		return nil, fmt.Errorf("tenant: Scheduler and CGroup are required")
	}
	if cfg.Allocator == nil {
		return nil, fmt.Errorf("tenant: Allocator is required")
	}
	cfg.SLA = cfg.SLA.withDefaults()
	topo := cfg.Scheduler.Machine().Topology()
	if cfg.SLA.MinCores > topo.TotalCores() {
		return nil, fmt.Errorf("tenant %s: MinCores %d exceeds machine cores %d",
			cfg.Name, cfg.SLA.MinCores, topo.TotalCores())
	}
	mech, err := elastic.New(elastic.Config{
		Scheduler:     cfg.Scheduler,
		CGroup:        cfg.CGroup,
		Allocator:     cfg.Allocator,
		Strategy:      cfg.Strategy,
		ControlPeriod: cfg.ControlPeriod,
		InitialCores:  cfg.SLA.MinCores,
	})
	if err != nil {
		return nil, err
	}
	return &Tenant{
		Name:   cfg.Name,
		SLA:    cfg.SLA,
		CGroup: cfg.CGroup,
		Mech:   mech,
		topo:   topo,
	}, nil
}

// Allocated returns the tenant's current cpuset.
func (t *Tenant) Allocated() sched.CPUSet { return t.CGroup.CPUs() }

// desire runs the tenant's control evaluation and refines the net's ±1
// step into the tenant's demand for this round:
//
//  1. The PrT net classifies the window and asks for one core more, one
//     less, or no change (the paper's mechanism, unmodified).
//  2. A LONC estimate (Equation 1) around the current operating point
//     projects where the per-core load band would settle, so a tenant far
//     from its local optimum converges in few rounds instead of one core
//     per period.
//
// The result is clamped to [SLA.MinCores, total]: a tenant always demands
// at least its paid-for floor.
func (t *Tenant) desire() int {
	d := t.Mech.DesiredStep()
	cur := t.CGroup.CPUs().Count()
	demand := d.N

	lonc := t.loncEstimate(d.U, cur)
	switch d.Decision {
	case petrinet.DecisionAllocate:
		if lonc > demand {
			demand = lonc
		}
	case petrinet.DecisionRelease:
		if lonc < demand {
			demand = lonc
		}
	}

	if demand < t.SLA.MinCores {
		demand = t.SLA.MinCores
	}
	if demand > t.topo.TotalCores() {
		demand = t.topo.TotalCores()
	}
	return demand
}

// loncEstimate applies FindLONC (the paper's Equation 1) to an analytic
// model of the tenant around its sampled operating point: the reading u is
// treated as load mass u*cur spread evenly over the allocation, so load at
// n cores is u*cur/n (capped at saturation), and performance saturates
// once the allocation covers the mass. The smallest allocation keeping the
// per-core reading inside the strategy band is the tenant's local-optimum
// demand. Returns cur — the net's ±1 step stands unrefined — when the
// model degenerates (idle window) or when the strategy is not the
// CPU-load strategy: only there is the reading a per-core load average
// that spreads inversely with core count (the HT/IMC ratio reads a
// shared-medium quantity that does not).
func (t *Tenant) loncEstimate(u, cur int) int {
	if u <= 0 || cur <= 0 {
		return cur
	}
	if _, ok := t.Mech.Strategy().(elastic.CPULoadStrategy); !ok {
		return cur
	}
	thMin, thMax := t.Mech.Strategy().Thresholds()
	mass := float64(u) * float64(cur)
	n, ok := elastic.FindLONC(func(n int) (float64, float64) {
		un := mass / float64(n)
		if un > 100 {
			un = 100
		}
		perf := math.Min(mass/100, float64(n))
		return un, perf
	}, t.topo.TotalCores(), float64(thMin), float64(thMax))
	if !ok {
		return cur
	}
	return n
}
