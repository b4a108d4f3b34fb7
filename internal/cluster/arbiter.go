package cluster

import (
	"fmt"

	"elasticore/internal/obs"
	"elasticore/internal/tenant"
)

// arbiter.go is the fleet's second control tier, the cross-machine
// generalization of tenant.Arbiter: where that arbiter moves cores
// between tenant cgroups on ONE machine, this one moves whole cores
// between MACHINES. Every cluster control period it collects each
// machine's demand (the machine's own PrT-net desire, backlog-clamped
// by the coordinator's queue signal), apportions a fleet-wide core
// budget with equal weights and per-machine floors, and applies the
// grants through each mechanism's Resize — shrinks immediately, grows
// only after an explicit migration latency, so rebalancing has a cost
// the experiments can measure instead of an assumed-free teleport.

// RebalanceEvent records one machine's outcome of a rebalance round in
// which its grant changed.
type RebalanceEvent struct {
	// Now is the virtual time of the round, in cycles.
	Now uint64
	// Machine is the fleet machine index.
	Machine int
	// Delta is the core movement: negative cores left immediately,
	// positive cores were scheduled to arrive after Latency cycles.
	Delta int
	// Target is the granted allocation the machine converges to.
	Target int
	// Latency is the migration latency charged per arriving core.
	Latency uint64
}

// ClusterArbiterConfig assembles a ClusterArbiter.
type ClusterArbiterConfig struct {
	// Fleet is the machine pool; every rig must carry a mechanism (an
	// elastic Mode), since demand is the mechanism's PrT-net desire.
	Fleet *Fleet
	// ControlPeriod is the cluster arbitration interval in cycles; zero
	// selects 50 ms — the same control-loop class as the paper's
	// single-machine mechanism, one tier up.
	ControlPeriod uint64
	// Budget is the total cores the fleet may hold; zero selects the
	// aggregate physical core count. Experiments set it below physical
	// to make machines actually contend.
	Budget int
	// MigrateLatency is the simulated cost of moving one core between
	// machines, in cycles: a grant increase only lands this many cycles
	// after the round that awarded it (shrinks are immediate — the core
	// is in transit, owned by nobody). Zero selects 1 ms.
	MigrateLatency uint64
}

// pendingGrant is one scheduled core arrival.
type pendingGrant struct {
	machine int
	cores   int
	due     uint64
}

// ClusterArbiter apportions a core budget across the fleet's machines.
// Attach it with NewClusterArbiter and drive it from Fleet.Tick; the
// invariant it maintains is that granted cores never exceed Budget —
// cores in transit count against their destination, so migration
// latency shows up as capacity the fleet temporarily cannot use.
type ClusterArbiter struct {
	fleet    *Fleet
	period   uint64
	nextEval uint64
	budget   int
	migrate  uint64
	weights  []int // all 1: every machine weighs the same
	floors   []int

	demand  []int
	grant   []int
	pending []pendingGrant
	// apportion holds the round's grant vector between rounds.
	apportion tenant.Apportioner

	events []RebalanceEvent
	// Rounds counts arbitration rounds executed (overhead accounting).
	Rounds uint64
	// MovedCores counts cores that traveled between machines (grant
	// increases applied through the migration queue).
	MovedCores int
	// ChargedCycles is the total migration cost: moved cores times the
	// per-core latency.
	ChargedCycles uint64
	// TransferCycles is the total shard-transfer cost the health monitor
	// charged against this budget (data movement after failures, on top
	// of core movement).
	TransferCycles uint64

	reserved int
}

// NewClusterArbiter wires the second control tier onto a fleet and
// installs it as the fleet's control loop (Fleet.Tick stops running the
// per-machine mechanisms' own apply step; they only evaluate).
func NewClusterArbiter(cfg ClusterArbiterConfig) (*ClusterArbiter, error) {
	f := cfg.Fleet
	if f == nil {
		return nil, fmt.Errorf("cluster: Fleet is required")
	}
	if f.arb != nil {
		return nil, fmt.Errorf("cluster: fleet already has an arbiter")
	}
	physical := 0
	for m, r := range f.Rigs {
		if r.Mech == nil {
			return nil, fmt.Errorf("cluster: machine %d has no mechanism (ModeOS); the arbiter needs per-machine demand", m)
		}
		physical += r.Machine.Topology().TotalCores()
	}
	if cfg.ControlPeriod == 0 {
		cfg.ControlPeriod = f.Rigs[0].Machine.Topology().SecondsToCycles(50e-3)
	}
	if cfg.Budget == 0 {
		cfg.Budget = physical
	}
	if cfg.Budget < len(f.Rigs) {
		return nil, fmt.Errorf("cluster: budget %d below the one-core-per-machine floor %d", cfg.Budget, len(f.Rigs))
	}
	if cfg.MigrateLatency == 0 {
		cfg.MigrateLatency = f.Rigs[0].Machine.Topology().SecondsToCycles(1e-3)
	}
	ca := &ClusterArbiter{
		fleet:    f,
		period:   cfg.ControlPeriod,
		nextEval: f.Now() + cfg.ControlPeriod,
		budget:   cfg.Budget,
		migrate:  cfg.MigrateLatency,
		weights:  make([]int, len(f.Rigs)),
		floors:   make([]int, len(f.Rigs)),
		demand:   make([]int, len(f.Rigs)),
		grant:    make([]int, len(f.Rigs)),
	}
	for m, r := range f.Rigs {
		// Every machine keeps at least one core (its mechanism's own
		// floor); demand and grant start at the current allocation.
		ca.weights[m] = 1
		ca.floors[m] = 1
		ca.demand[m] = r.AllocatedCores()
		ca.grant[m] = r.AllocatedCores()
	}
	f.arb = ca
	return ca, nil
}

// Budget returns the fleet-wide core budget.
func (ca *ClusterArbiter) Budget() int { return ca.budget }

// MigrateLatency returns the per-core migration cost in cycles.
func (ca *ClusterArbiter) MigrateLatency() uint64 { return ca.migrate }

// Events returns the rebalance timeline recorded so far: one entry per
// machine per round in which its grant changed.
func (ca *ClusterArbiter) Events() []RebalanceEvent { return ca.events }

// ChargeTransfer adds a shard-transfer cost to the arbiter's ledger; the
// health monitor calls it when a re-assignment lands.
func (ca *ClusterArbiter) ChargeTransfer(cycles uint64) {
	ca.TransferCycles += cycles
	ca.ChargedCycles += cycles
}

// SetReserved withholds n cores from the apportionable budget (the
// health monitor reserves capacity for in-flight shard transfers); the
// one-core-per-machine floors always remain grantable.
func (ca *ClusterArbiter) SetReserved(n int) {
	if n < 0 {
		n = 0
	}
	ca.reserved = n
}

// NextAt returns the next cycle at which Maybe has real work: the next
// rebalance round, or the earliest pending migration landing — applyDue
// runs every call, so an in-flight grant is as hard a deadline as the
// control period. The parallel fleet engine caps decoupled stretches at
// it.
func (ca *ClusterArbiter) NextAt() uint64 {
	at := ca.nextEval
	for _, p := range ca.pending {
		if p.due < at {
			at = p.due
		}
	}
	return at
}

// InTransit returns cores currently migrating (granted, not yet landed).
func (ca *ClusterArbiter) InTransit() int {
	n := 0
	for _, p := range ca.pending {
		n += p.cores
	}
	return n
}

// Maybe lands any due migrations and runs a rebalance round if the
// cluster control period has elapsed. Cheap to call every tick.
func (ca *ClusterArbiter) Maybe() {
	now := ca.fleet.Now()
	ca.applyDue(now)
	if now < ca.nextEval {
		return
	}
	ca.Step()
}

// applyDue lands migrations whose latency has elapsed: the destination
// machine's mechanism places the concrete cores.
func (ca *ClusterArbiter) applyDue(now uint64) {
	kept := ca.pending[:0]
	for _, p := range ca.pending {
		if p.due > now {
			kept = append(kept, p)
			continue
		}
		r := ca.fleet.Rigs[p.machine]
		r.Mech.Resize(r.AllocatedCores()+p.cores, 0)
	}
	ca.pending = kept
}

// Step runs one rebalance round: collect per-machine desires, apportion
// the budget, shrink donors immediately and queue grows behind the
// migration latency.
func (ca *ClusterArbiter) Step() {
	f := ca.fleet
	now := f.Now()
	ca.nextEval = now + ca.period
	ca.Rounds++

	for m, r := range f.Rigs {
		// A machine whose own control period has not elapsed keeps its
		// previous demand — the cluster tier must not shorten the
		// mechanisms' sampling windows.
		if r.Mech.Due() {
			ca.demand[m] = r.Mech.DesiredStep().N
		}
		// A machine the health monitor believes dead demands only its
		// floor: its stalled cores are reclaimed for the survivors until
		// its beats resume.
		if f.health != nil && f.health.Dead(m) {
			ca.demand[m] = ca.floors[m]
		}
	}
	budget := ca.budget - ca.reserved
	if budget < len(f.Rigs) {
		budget = len(f.Rigs) // the floors stay grantable
	}
	grant := ca.apportion.Apportion(ca.demand, ca.weights, ca.floors, budget)

	for m, r := range f.Rigs {
		target := grant[m]
		// Committed = what the machine holds plus what is already in
		// flight toward it; deltas are measured against that, so a slow
		// migration is not double-scheduled by the next round.
		committed := r.AllocatedCores()
		for _, p := range ca.pending {
			if p.machine == m {
				committed += p.cores
			}
		}
		delta := target - committed
		changed := grant[m] != ca.grant[m]
		ca.grant[m] = target
		switch {
		case delta < 0:
			// Shrink immediately through the machine's own victim order.
			// Over-committed in-transit cores are cancelled first — they
			// have not landed, so revoking them is free.
			cancel := -delta
			for i := range ca.pending {
				p := &ca.pending[i]
				if p.machine != m || cancel == 0 {
					continue
				}
				c := p.cores
				if c > cancel {
					c = cancel
				}
				p.cores -= c
				cancel -= c
			}
			if cancel > 0 {
				r.Mech.Resize(max(r.AllocatedCores()-cancel, ca.floors[m]), 0)
			}
		case delta > 0:
			ca.pending = append(ca.pending, pendingGrant{machine: m, cores: delta, due: now + ca.migrate})
			ca.MovedCores += delta
			ca.ChargedCycles += uint64(delta) * ca.migrate
		}
		if changed {
			ca.events = append(ca.events, RebalanceEvent{
				Now: now, Machine: m, Delta: delta, Target: target, Latency: ca.migrate,
			})
			if f.Bus != nil {
				f.Bus.Publish(obs.Event{
					Kind:    obs.KindRebalance,
					Now:     now,
					Core:    -1,
					Dur:     ca.migrate,
					V1:      int64(delta),
					V2:      int64(target),
					Machine: int32(m),
				})
			}
		}
	}
	// Drop cancelled (zero-core) pending entries, preserving order.
	kept := ca.pending[:0]
	for _, p := range ca.pending {
		if p.cores > 0 {
			kept = append(kept, p)
		}
	}
	ca.pending = kept
}
