package cluster

import (
	"fmt"
	"runtime"

	"elasticore/internal/elastic"
	"elasticore/internal/faults"
	"elasticore/internal/hashmix"
	"elasticore/internal/hostpool"
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
	// Workers bounds how many goroutines tick an epoch's busy machines at
	// once: the caller and up to Workers-1 host-pool workers (0 selects
	// GOMAXPROCS; at 1 the caller ticks them all). Construction ignores
	// it. Simulated results are bit-identical at every value: machines
	// decouple only between the epoch barriers where cross-machine state
	// is read, and staged telemetry replays in sequential order.
	Workers int
}

// Fleet is N lockstep simulated machines behind one Sharder. All
// machines share one quantum and reach every epoch barrier together:
// Tick (one quantum) and Advance (a stretch of them) move each machine
// forward — idle ones in one bulk step, busy ones quantum by quantum,
// concurrently when there are several — and then run, in machine order
// on the calling goroutine, whichever control tier is attached
// (per-machine mechanisms, or the ClusterArbiter when one has been
// installed).
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
	// exist: every rig of a lit fleet has one, a dark fleet has none).
	// Rigs publish through them so machines that run decoupled keep the
	// bus's sequential event order (see internal/obs/stage.go).
	views []*obs.Bus

	// The tick engine (see tickRigs). busy, stretch and staged describe
	// the current epoch: the caller writes them before it runs the epoch's
	// group and the group's members only read them.
	stats   EngineStats
	busy    []int // machines with runnable threads, ascending
	stretch int   // quanta each machine advances this epoch
	staged  bool  // busy machines stage their telemetry
	ticks   hostpool.Group
	tickOne func(i int) // f.tickBusy, bound once

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
	f.tickOne = f.tickBusy
	f.admissions = make([]*workload.Admission, opts.Machines)
	buildRig := func(m int) (*workload.Rig, error) {
		// A machine stores every shard it replicates, so its dataset share
		// is HomesOf/Shards — identical to the owned range at R = 1. The
		// rig is built dark and gets a staging view of the shared bus
		// afterwards.
		return workload.NewRig(workload.Options{
			SF:       opts.SF * float64(sh.HomesOf(m)) / float64(opts.Shards),
			Seed:     fleetSeed(opts.Seed, m),
			Mode:     opts.Mode,
			Strategy: opts.Strategy,
			Topology: opts.Topology,
		})
	}
	// Dataset generation dominates rig construction: distinct (SF, seed)
	// keys generate at once on the host pool, identical ones coalesce in
	// the tpch cache's singleflight.
	f.Rigs = make([]*workload.Rig, opts.Machines)
	errs := make([]error, opts.Machines)
	var build hostpool.Group
	build.Each(opts.Machines, opts.Machines, func(m int) { f.Rigs[m], errs[m] = buildRig(m) })
	for m, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: machine %d: %w", m, err)
		}
	}
	if opts.Bus != nil {
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

// Health returns the attached health monitor, nil when failure detection
// is off.
func (f *Fleet) Health() *HealthMonitor { return f.health }

// Injector returns the compiled fault plan, nil for a healthy fleet.
// All its read methods are nil-safe, so callers query it unconditionally.
func (f *Fleet) Injector() *faults.Injector { return f.injector }

// EnsureBus returns the fleet-wide bus, creating one and attaching it to
// every machine on first use (the health monitor needs heartbeats even
// when the caller never asked for telemetry).
func (f *Fleet) EnsureBus() *obs.Bus {
	if f.Bus == nil {
		f.Bus = obs.NewBus(0)
		f.attachViews()
	}
	return f.Bus
}

// attachViews gives every rig a staging view of the fleet bus: rigs
// publish through their view, which forwards to the shared bus except
// while several machines run decoupled, when events stage per machine
// and replay in deterministic order at the barrier.
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
// Busy machines may tick on concurrent goroutines (see tickRigs); the
// control tier, heartbeats, health and probe steps always run on the
// calling goroutine, after the barrier. Results are bit-identical at
// every Workers value.
func (f *Fleet) Tick() { f.advanceStretch(1) }

// Advance runs n quanta through the epoch-barrier engine: machines
// advance decoupled through a stretch of quanta, then synchronize before
// anything that reads cross-machine state runs. A stretch is capped at
// the earliest due control event — mechanism evaluation, cluster
// rebalance or migration landing, probe sample, fault edge — so every
// control action fires on exactly the quantum a Tick-by-Tick run would
// have fired it on; a health-monitored fleet's stretch also ends at the
// next heartbeat, death deadline or transfer landing (HealthMonitor.NextAt).
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
// earliest due control event (workload.QuantaUntil's rule). Each rig
// names its own barriers through the helper its Advance stops at.
func (f *Fleet) safeStretch(max int) int {
	if max <= 1 {
		return 1
	}
	// With no control tier, no health monitor, no probes and no faults
	// next stays at the maximum: nothing reads cross-machine state until
	// the caller does.
	next := ^uint64(0)
	if f.arb != nil {
		next = f.arb.NextAt()
	}
	if f.health != nil {
		next = min(next, f.health.NextAt())
	}
	for _, r := range f.Rigs {
		next = min(next, r.NextDue(f.arb == nil))
	}
	if f.injector != nil {
		next = min(next, f.injector.NextEdge())
	}
	return workload.QuantaUntil(f.Now(), next, f.Rigs[0].Sched.Quantum(), max)
}

// EngineStats counts what the tick engine did. It is a function of the
// simulated run and Workers alone; none of it is part of any Result.
type EngineStats struct {
	// Epochs is the number of barrier-to-barrier stretches run and
	// Quanta the quanta they covered, so Quanta/Epochs is the mean
	// stretch.
	Epochs, Quanta uint64
	// MachineQuantaSkipped counts the machine-quanta advanced in bulk
	// because the machine had nothing runnable when its epoch began.
	MachineQuantaSkipped uint64
	// InlineEpochs had busy machines and ran them all on the calling
	// goroutine; ParallelEpochs offered them to the host pool too.
	// Epochs that found every machine idle are in neither.
	InlineEpochs, ParallelEpochs uint64
}

// EngineStats returns the tick engine's counters so far.
func (f *Fleet) EngineStats() EngineStats { return f.stats }

// tickRigs advances every machine by `stretch` quanta. A machine with
// nothing runnable cannot change before the barrier — only barrier work
// spawns or wakes threads — so it is advanced in one bulk step here and
// publishes nothing. The busy machines run as one hostpool.Group, up to
// Workers goroutines wide, each claiming them one at a time. Whenever the
// bus could see two machines' events out of sequential order (machines
// running concurrently, or one after the other through a multi-quantum
// stretch) they stage their telemetry per quantum, and after the barrier
// the staged events replay in (quantum, machine) order — the order a
// quantum-by-quantum sequential loop publishes in.
func (f *Fleet) tickRigs(stretch int) {
	f.stats.Epochs++
	f.stats.Quanta += uint64(stretch)
	busy := f.busy[:0]
	for m, r := range f.Rigs {
		if r.Sched.Idle() {
			r.Sched.Advance(stretch)
		} else {
			busy = append(busy, m)
		}
	}
	f.busy = busy
	f.stats.MachineQuantaSkipped += uint64(stretch) * uint64(len(f.Rigs)-len(busy))
	if len(busy) == 0 {
		return
	}
	width := min(f.Opts.Workers, len(busy))
	f.stretch = stretch
	f.staged = f.views != nil && len(busy) > 1 && (width > 1 || stretch > 1)
	if f.staged {
		for _, m := range busy {
			f.views[m].BeginStage()
		}
	}
	if width == 1 {
		f.stats.InlineEpochs++
	} else {
		f.stats.ParallelEpochs++
	}
	f.ticks.Each(len(busy), width, f.tickOne)
	if f.staged {
		for q := 0; q < stretch; q++ {
			for _, m := range busy {
				for _, e := range f.views[m].Staged(q) {
					f.Bus.Publish(e)
				}
			}
		}
		for _, m := range busy {
			f.views[m].EndStage()
		}
	}
}

// tickBusy advances busy machine i by the epoch's stretch. A staged
// machine marks every quantum it ticks; one that goes idle midway skips
// the rest, which publish nothing.
func (f *Fleet) tickBusy(i int) {
	m := f.busy[i]
	s, n := f.Rigs[m].Sched, f.stretch
	if f.staged {
		for v := f.views[m]; n > 0 && !s.Idle(); n-- {
			s.Tick()
			v.Mark()
		}
	}
	s.Advance(n)
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
