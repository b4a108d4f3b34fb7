package cluster

import (
	"fmt"
	"runtime"
	"sync"

	"elasticore/internal/elastic"
	"elasticore/internal/faults"
	"elasticore/internal/hashmix"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/workload"
)

// Options configures a fleet.
type Options struct {
	// Machines is the fleet size (default 1).
	Machines int
	// Shards is the partition count (default Machines; must be >= it).
	Shards int
	// SF is the *total* TPC-H scale factor; each machine loads its owned
	// fraction (shards owned / total shards) of it.
	SF float64
	// Seed varies datasets and workload; each machine derives its own
	// dataset seed from it (default 1).
	Seed uint64
	// Mode is the per-machine allocation policy (default ModeOS: no
	// mechanism; a ClusterArbiter requires an elastic mode).
	Mode workload.Mode
	// Strategy overrides each mechanism's state-transition metric.
	Strategy elastic.Strategy
	// ControlPeriod overrides the per-machine control period in cycles.
	ControlPeriod uint64
	// Topology is the per-machine base shape (default the SF-scaled
	// Opteron testbed). Every machine gets the same shape, which makes
	// all quanta equal — the lockstep invariant Tick depends on.
	Topology *numa.Topology
	// Bus, when set, is attached to every rig and to the cluster layers
	// (Coordinator routes, ClusterArbiter rebalances).
	Bus *obs.Bus
	// Replicas keeps R copies of every shard (default 1, no
	// replication); each machine's dataset grows to its share of the
	// replicated store. Must fit the fleet: 1 <= R <= Machines.
	Replicas int
	// Faults, when non-empty, is the deterministic failure plan
	// compiled against this fleet and injected as it ticks. An empty
	// or nil plan leaves every code path byte-identical to a fleet
	// built before fault injection existed.
	Faults *faults.Plan
	// Workers is the goroutine count machine construction and machine
	// ticks spread over (0 selects GOMAXPROCS, 1 forces the fully
	// sequential engine). Simulated results are bit-identical at every
	// value: machines decouple only between the epoch barriers where
	// cross-machine state is read, and staged telemetry replays onto the
	// shared bus in sequential order (see Advance).
	Workers int
}

// Fleet is N lockstep simulated machines behind one Sharder. All
// machines share one quantum and advance together: Tick ticks each
// machine's scheduler in index order, then runs whichever control tier
// is attached (per-machine mechanisms, or the ClusterArbiter when one
// has been installed).
type Fleet struct {
	// Sharder owns the key -> shard -> machine placement.
	Sharder *Sharder
	// Rigs are the machines in index order.
	Rigs []*workload.Rig
	// Opts echoes the construction options (post-default).
	Opts Options
	// Bus is the fleet-wide telemetry bus, nil when dark.
	Bus *obs.Bus

	arb    *ClusterArbiter
	health *HealthMonitor

	// views are the per-machine staging views of Bus (nil entries never
	// exist: either every rig has one, or the slice is nil). Workers > 1
	// publishes through them so concurrent machine ticks keep the bus's
	// sequential event order (see internal/obs/stage.go).
	views []*obs.Bus

	// injector is the compiled fault plan, nil for healthy fleets.
	injector *faults.Injector
	// admissions registers each machine's admission layer (set by the
	// Coordinator) so crash injection can abort queued work and the
	// health monitor can apply brownout caps; entries may be nil.
	admissions []*workload.Admission
	// nextBeat is the cycle of the next heartbeat round (health enabled).
	nextBeat uint64
}

// fleetSeed derives machine m's dataset seed: distinct per machine (a
// machine holds its own shard range, not a copy), stable across runs,
// and never zero (zero selects the rig default).
func fleetSeed(seed uint64, m int) uint64 {
	s := hashmix.Mix64(seed ^ (hashmix.Golden * uint64(m+1)))
	if s == 0 {
		s = 1
	}
	return s
}

// NewFleet builds the machines and the sharder. Each machine's dataset
// is its owned fraction of the total SF, so the fleet as a whole stores
// one database regardless of machine count.
func NewFleet(opts Options) (*Fleet, error) {
	if opts.Machines == 0 {
		opts.Machines = 1
	}
	if opts.Shards == 0 {
		opts.Shards = opts.Machines
	}
	if opts.Replicas == 0 {
		opts.Replicas = 1
	}
	sh, err := NewReplicatedSharder(opts.Shards, opts.Machines, opts.Replicas)
	if err != nil {
		return nil, err
	}
	if opts.SF == 0 {
		opts.SF = 0.01
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	f := &Fleet{Sharder: sh, Opts: opts, Bus: opts.Bus}
	f.admissions = make([]*workload.Admission, opts.Machines)
	buildRig := func(m int) (*workload.Rig, error) {
		// A machine stores every shard it replicates, so its dataset share
		// is HomesOf/Shards — identical to the owned range at R = 1. In
		// parallel mode the rig is built dark and gets a staging view of
		// the shared bus afterwards.
		bus := opts.Bus
		if opts.Workers > 1 {
			bus = nil
		}
		return workload.NewRig(workload.Options{
			SF:            opts.SF * float64(sh.HomesOf(m)) / float64(opts.Shards),
			Seed:          fleetSeed(opts.Seed, m),
			Mode:          opts.Mode,
			Strategy:      opts.Strategy,
			ControlPeriod: opts.ControlPeriod,
			Topology:      opts.Topology,
			Bus:           bus,
		})
	}
	f.Rigs = make([]*workload.Rig, opts.Machines)
	if w := min(opts.Workers, opts.Machines); w > 1 {
		// Build machines concurrently: dataset generation dominates rig
		// construction, distinct (SF, seed) keys generate in parallel and
		// identical ones coalesce in the tpch cache's singleflight.
		errs := make([]error, opts.Machines)
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for m := g; m < opts.Machines; m += w {
					f.Rigs[m], errs[m] = buildRig(m)
				}
			}(g)
		}
		wg.Wait()
		for m, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("cluster: machine %d: %w", m, err)
			}
		}
	} else {
		for m := 0; m < opts.Machines; m++ {
			r, err := buildRig(m)
			if err != nil {
				return nil, fmt.Errorf("cluster: machine %d: %w", m, err)
			}
			f.Rigs[m] = r
		}
	}
	if opts.Bus != nil && opts.Workers > 1 {
		f.attachViews()
	}
	if opts.Faults != nil && len(opts.Faults.Faults) > 0 {
		topo := f.Rigs[0].Machine.Topology()
		if err := opts.Faults.Validate(opts.Machines, topo.TotalCores()); err != nil {
			return nil, err
		}
		f.injector = opts.Faults.Compile(opts.Machines, topo.TotalCores(), topo.SecondsToCycles)
	}
	return f, nil
}

// Machines returns the fleet size.
func (f *Fleet) Machines() int { return len(f.Rigs) }

// Now returns the fleet clock in cycles (machine 0; all machines are in
// lockstep).
func (f *Fleet) Now() uint64 { return f.Rigs[0].Machine.Now() }

// NowSeconds returns the fleet clock in virtual seconds.
func (f *Fleet) NowSeconds() float64 { return f.Rigs[0].Machine.NowSeconds() }

// Arbiter returns the attached cluster arbiter, nil when each machine's
// mechanism self-governs.
func (f *Fleet) Arbiter() *ClusterArbiter { return f.arb }

// Health returns the attached health monitor, nil when failure detection
// is off.
func (f *Fleet) Health() *HealthMonitor { return f.health }

// Injector returns the compiled fault plan, nil for a healthy fleet.
// All its read methods are nil-safe, so callers query it unconditionally.
func (f *Fleet) Injector() *faults.Injector { return f.injector }

// Down reports whether machine m is currently crashed by the fault plan.
func (f *Fleet) Down(m int) bool { return f.injector.Down(m) }

// EnsureBus returns the fleet-wide bus, creating one and attaching it to
// every machine on first use (the health monitor needs heartbeats even
// when the caller never asked for telemetry).
func (f *Fleet) EnsureBus() *obs.Bus {
	if f.Bus == nil {
		f.Bus = obs.NewBus(0)
		if f.Opts.Workers > 1 {
			f.attachViews()
		} else {
			for _, r := range f.Rigs {
				r.AttachBus(f.Bus)
			}
		}
	}
	return f.Bus
}

// attachViews gives every rig a staging view of the fleet bus: rigs
// publish through their view, which forwards to the shared bus except
// during a parallel tick section, where events stage per machine and
// replay in deterministic order at the barrier.
func (f *Fleet) attachViews() {
	f.views = make([]*obs.Bus, len(f.Rigs))
	for m, r := range f.Rigs {
		f.views[m] = obs.NewView(f.Bus)
		r.AttachBus(f.views[m])
	}
}

// RegisterAdmission ties machine m's admission layer to the fleet so
// crash injection can abort its queued work (FailAll) and the health
// monitor can brownout-cap it. The Coordinator registers its per-machine
// admissions at the start of a run; a machine already down at
// registration starts gated.
func (f *Fleet) RegisterAdmission(m int, adm *workload.Admission) {
	f.admissions[m] = adm
	if adm != nil && f.injector.Down(m) {
		adm.Down = true
	}
}

// Tick advances every machine by one scheduler quantum, then runs the
// control tier: the ClusterArbiter when attached (the per-machine
// mechanisms only *evaluate*, via the arbiter), otherwise each machine's
// own mechanism. With a fault plan compiled in, fault edges due at the
// current cycle apply BEFORE the rigs tick — a machine crashing at cycle
// t never executes work stamped t — and heartbeats plus failure
// detection run after the control tier, so the health monitor sees the
// post-control allocation state.
//
// With Workers > 1 the machines tick on concurrent goroutines; the
// control tier, heartbeats, health and probe steps always run on the
// calling goroutine, after the barrier. Results are bit-identical to the
// sequential engine.
func (f *Fleet) Tick() { f.advanceStretch(1) }

// Advance runs n quanta through the epoch-barrier engine: machines
// advance decoupled through a stretch of quanta, then synchronize before
// anything that reads cross-machine state runs. A stretch is capped at
// the earliest due control event — mechanism evaluation, cluster
// rebalance or migration landing, probe sample, fault edge — so every
// control action fires on exactly the quantum a Tick-by-Tick run would
// have fired it on, and a health-monitored fleet (whose failure detector
// steps every quantum) degenerates to stretch 1.
func (f *Fleet) Advance(n int) {
	for n > 0 {
		s := f.safeStretch(n)
		f.advanceStretch(s)
		n -= s
	}
}

// advanceStretch runs one epoch: due fault edges, `stretch` decoupled
// quanta per machine, then the barrier work in sequential order.
func (f *Fleet) advanceStretch(stretch int) {
	if f.injector != nil {
		f.applyFaults()
	}
	f.tickRigs(stretch)
	if f.arb != nil {
		f.arb.Maybe()
	} else {
		for _, r := range f.Rigs {
			if r.Mech != nil {
				r.Mech.Maybe()
			}
		}
	}
	if f.health != nil {
		f.heartbeats()
		f.health.Step(f.Now())
	}
	for _, r := range f.Rigs {
		if r.Probe != nil {
			r.Probe.Maybe()
		}
	}
}

// safeStretch returns how many quanta the machines may advance before
// the next epoch barrier, at most max: the number of quanta until the
// earliest due control event. Mechanism and probe due times are checked
// after a quantum runs, fault edges before one runs; both give the same
// bound — ceil((due - now) / quantum) — because a barrier ends exactly
// at the due quantum's edge.
func (f *Fleet) safeStretch(max int) int {
	if max <= 1 {
		return 1
	}
	if f.health != nil {
		// The failure detector reads every machine's beat gap each
		// quantum; there is no safe decoupled stretch.
		return 1
	}
	next := ^uint64(0)
	due := func(at uint64) {
		if at < next {
			next = at
		}
	}
	if f.arb != nil {
		due(f.arb.NextAt())
	} else {
		for _, r := range f.Rigs {
			if r.Mech != nil {
				due(r.Mech.NextAt())
			}
		}
	}
	for _, r := range f.Rigs {
		if r.Probe != nil {
			due(r.Probe.NextAt())
		}
	}
	if f.injector != nil {
		due(f.injector.NextEdge())
	}
	if next == ^uint64(0) {
		// No control tier, no probes, no faults: nothing reads
		// cross-machine state until the caller does.
		return max
	}
	now := f.Now()
	if next <= now {
		return 1
	}
	q := f.Rigs[0].Sched.Quantum()
	s := (next - now + q - 1) / q
	if s < 1 {
		return 1
	}
	if s > uint64(max) {
		return max
	}
	return int(s)
}

// tickRigs advances every machine by `stretch` quanta. Workers <= 1 (or
// a single machine) runs the plain sequential loop. Otherwise machines
// spread across Workers goroutines; each machine stages its telemetry
// per quantum, and after the barrier the staged events replay onto the
// shared bus in (quantum, machine) order — the exact order the
// sequential loop publishes in.
func (f *Fleet) tickRigs(stretch int) {
	w := f.Opts.Workers
	if w > len(f.Rigs) {
		w = len(f.Rigs)
	}
	if w <= 1 {
		for q := 0; q < stretch; q++ {
			for _, r := range f.Rigs {
				r.Sched.Tick()
			}
		}
		return
	}
	staged := f.views != nil
	if staged {
		for _, v := range f.views {
			v.BeginStage()
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for m := g; m < len(f.Rigs); m += w {
				r := f.Rigs[m]
				if staged {
					v := f.views[m]
					for q := 0; q < stretch; q++ {
						r.Sched.Tick()
						v.Mark()
					}
				} else {
					for q := 0; q < stretch; q++ {
						r.Sched.Tick()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if staged {
		for q := 0; q < stretch; q++ {
			for _, v := range f.views {
				for _, e := range v.Staged(q) {
					f.Bus.Publish(e)
				}
			}
		}
		for _, v := range f.views {
			v.EndStage()
		}
	}
}

// applyFaults advances the injector to the fleet clock and applies every
// fault edge that became due, in the injector's deterministic order
// (cycle, then plan index, starts before ends).
func (f *Fleet) applyFaults() {
	now := f.Now()
	for _, ch := range f.injector.Advance(now) {
		ft := f.injector.Fault(ch.Index)
		m := ft.Machine
		r := f.Rigs[m]
		label := ft.Kind.String()
		switch ft.Kind {
		case faults.Crash:
			if ch.Start {
				// Crash: the machine keeps ticking (the fleet's lockstep
				// invariant) but every core freezes and all queued and
				// in-flight work aborts.
				for c := 0; c < r.Machine.Topology().TotalCores(); c++ {
					r.Sched.SetCoreSlowdown(numa.CoreID(c), faults.StallFactor)
				}
				if adm := f.admissions[m]; adm != nil {
					adm.Down = true
					adm.FailAll()
				}
			} else {
				label = "recover"
				// Restore whatever slow/stall faults remain active on
				// each core — the injector's combined factor, not 1.
				for c := 0; c < r.Machine.Topology().TotalCores(); c++ {
					r.Sched.SetCoreSlowdown(numa.CoreID(c), f.injector.CoreFactor(m, c))
				}
				if adm := f.admissions[m]; adm != nil {
					adm.Down = false
				}
			}
		case faults.Stall, faults.Slow:
			if !ch.Start {
				label += "-end"
			}
			// Re-apply the combined factor over the fault's core range,
			// unless a crash currently dominates the whole machine.
			if !f.injector.Down(m) {
				lo, hi := ft.Core, ft.CoreHi
				if lo < 0 {
					lo, hi = 0, r.Machine.Topology().TotalCores()-1
				}
				for c := lo; c <= hi; c++ {
					r.Sched.SetCoreSlowdown(numa.CoreID(c), f.injector.CoreFactor(m, c))
				}
			}
		case faults.Link:
			// Nothing to apply on the machine: the coordinator reads the
			// injector's link state on every send. The event is the record.
			if !ch.Start {
				label += "-end"
			}
		}
		if f.Bus != nil {
			f.Bus.Publish(obs.Event{
				Kind:    obs.KindFault,
				Now:     ch.At,
				Core:    int32(ft.Core),
				V1:      int64(ft.Factor),
				V2:      int64(ft.Drop * 1e6),
				Dur:     f.injector.LinkDelay(m),
				Label:   label,
				Machine: int32(m),
			})
		}
	}
}

// heartbeats publishes one liveness beat per non-crashed machine every
// HeartbeatEvery cycles; the health monitor listens on the bus, so a
// crashed machine's silence is what its death detection feeds on.
func (f *Fleet) heartbeats() {
	now := f.Now()
	if now < f.nextBeat {
		return
	}
	f.nextBeat = now + f.health.HeartbeatEvery()
	for m := range f.Rigs {
		if f.injector.Down(m) {
			continue
		}
		f.Bus.Publish(obs.Event{
			Kind:    obs.KindHeartbeat,
			Now:     now,
			Core:    -1,
			Machine: int32(m),
		})
	}
}

// AllocatedCores returns the cores currently held by each machine's
// DBMS cgroup, in machine order.
func (f *Fleet) AllocatedCores() []int {
	out := make([]int, len(f.Rigs))
	for m, r := range f.Rigs {
		out[m] = r.AllocatedCores()
	}
	return out
}
