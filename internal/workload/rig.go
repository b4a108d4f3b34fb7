// Package workload assembles complete experiment rigs — machine, OS
// scheduler, store, engine, cgroup and (optionally) the elastic mechanism
// — and drives concurrent-client query streams over them, reproducing the
// execution protocols of the paper's Section V.
package workload

import (
	"fmt"

	"elasticore/internal/db"
	"elasticore/internal/elastic"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
	"elasticore/internal/tpch"
)

// Mode selects the allocation policy of a rig: the plain OS scheduler
// (all cores, no mechanism) or the mechanism with one of its allocation
// modes — the paper's three, or one of the topology-aware three.
type Mode int

const (
	// ModeOS hands all cores to the OS (the paper's baseline).
	ModeOS Mode = iota
	// ModeDense runs the mechanism with dense allocation.
	ModeDense
	// ModeSparse runs the mechanism with sparse allocation.
	ModeSparse
	// ModeAdaptive runs the mechanism with the adaptive priority mode.
	ModeAdaptive
	// ModeNodeFill runs the mechanism with node-fill placement: pack a
	// socket, then open the free socket nearest by hop distance.
	ModeNodeFill
	// ModeHopMin runs the mechanism with hop-min placement: each grant
	// goes to the free core nearest to the cores already held.
	ModeHopMin
	// ModeScatter runs the mechanism with scatter placement, the
	// topology-blind round-robin baseline.
	ModeScatter
)

// modeNames are the modes' String values, indexed by Mode.
var modeNames = [...]string{"os", "dense", "sparse", "adaptive", "node-fill", "hop-min", "scatter"}

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m >= 0 && int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// AllModes lists the four configurations of Figure 13.
var AllModes = []Mode{ModeOS, ModeDense, ModeSparse, ModeAdaptive}

// allocatorFor returns the allocation mode m selects on topo, or nil under
// ModeOS, which runs no mechanism. residency builds the adaptive mode's
// residency source and is called for ModeAdaptive alone: a rig's source
// opens a counter window when built.
func allocatorFor(m Mode, topo *numa.Topology, residency func() elastic.ResidencyFunc) (elastic.Allocator, error) {
	switch m {
	case ModeOS:
		return nil, nil
	case ModeDense:
		return elastic.NewDense(topo), nil
	case ModeSparse:
		return elastic.NewSparse(topo), nil
	case ModeAdaptive:
		return elastic.NewAdaptive(topo, residency()), nil
	case ModeNodeFill:
		return elastic.NewNodeFill(topo), nil
	case ModeHopMin:
		return elastic.NewHopMin(topo), nil
	case ModeScatter:
		return elastic.NewScatter(topo), nil
	}
	return nil, fmt.Errorf("workload: unknown mode %v", m)
}

// Options configures a rig.
type Options struct {
	// SF is the TPC-H scale factor (default 0.01).
	SF float64
	// Seed varies dataset and workload (default 1).
	Seed uint64
	// Mode is the allocation policy (default ModeOS).
	Mode Mode
	// Placement selects the engine flavour: MonetDB-like (PlacementOS) or
	// SQL-Server-like (PlacementNUMAAware). Where cores go is Mode's.
	Placement db.Placement
	// Strategy overrides the mechanism's state-transition metric
	// (default CPU load).
	Strategy elastic.Strategy
	// ControlPeriod overrides the mechanism control period in cycles
	// (default the machine's timebase control period).
	ControlPeriod uint64
	// Topology overrides the machine shape (default Opteron8387). The
	// experiments scale cache sizes and bandwidths with SF to preserve
	// the paper's data-to-cache ratio at small scale factors.
	Topology *numa.Topology
	// Bus, when set, is attached to every producer of the rig (scheduler,
	// engine, mechanism, open-loop driver) so one telemetry stream spans
	// the stack. Events observe, never perturb: a traced rig's simulated
	// results are bit-identical to an untraced one's.
	Bus *obs.Bus
}

// DBMSPID is the simulated server process id.
const DBMSPID = 100

// ScaledTopology shrinks the Opteron testbed's cache hierarchy and
// bandwidths proportionally to the scale factor, preserving the paper's
// operating point: a 1 GB database against 6 MB L3s is firmly DRAM- and
// interconnect-bound, and a 5 MB database against full-size caches would
// not be. Geometry floors keep the model meaningful at very small SF.
// SF 1 returns the unmodified testbed.
func ScaledTopology(sf float64) *numa.Topology {
	return ScaleTopology(numa.Opteron8387(), sf)
}

// ScaleTopology applies the same SF-proportional cache and bandwidth
// scaling to an arbitrary base topology (the zoo shapes, parsed specs),
// so experiments sweeping machine geometry keep the paper's
// data-to-cache ratio at small scale factors. The base is not modified;
// SF >= 1 returns it unchanged.
func ScaleTopology(base *numa.Topology, sf float64) *numa.Topology {
	if sf >= 1 {
		return base
	}
	c := *base
	t := &c
	t.BlockBytes = 4 * 1024
	scale := sf * 4 // slack: 4x the strictly proportional size
	clampInt := func(v, floor int) int {
		if v < floor {
			return floor
		}
		return v
	}
	t.L3Bytes = clampInt(int(float64(t.L3Bytes)*scale), 16*t.BlockBytes)
	t.L1Bytes = clampInt(int(float64(t.L1Bytes)*scale), t.BlockBytes)
	t.L2Bytes = clampInt(int(float64(t.L2Bytes)*scale), t.BlockBytes)
	clampF := func(v, floor float64) float64 {
		if v < floor {
			return floor
		}
		return v
	}
	t.MemBandwidth = clampF(t.MemBandwidth*scale, 1e8)
	// The interconnect keeps more headroom than the memory controllers:
	// the paper's testbed peaked near 8 GB/s of its 41.6 GB/s aggregate
	// (Fig 4 (c)) — loaded but not saturated.
	t.HTBandwidth = clampF(t.HTBandwidth*scale*3, 5e8)
	return t
}

// Rig is a fully wired experiment environment.
type Rig struct {
	Machine *numa.Machine
	Sched   *sched.Scheduler
	Store   *db.Store
	Engine  *db.Engine
	CGroup  *sched.CGroup
	Mech    *elastic.Mechanism // nil under ModeOS
	Dataset *tpch.Dataset
	Opts    Options
	// Bus is the telemetry bus attached to the rig's producers; nil when
	// the rig runs dark (see Options.Bus, EnsureBus).
	Bus *obs.Bus
	// Probe, when enabled, samples timeline Snapshots at Advance's
	// barriers (see EnableProbe).
	Probe *obs.Probe
}

// newMachine builds the machine and scheduler under a rig of either kind,
// the scheduler at the timebase quantum. A nil topology selects the
// Opteron testbed scaled to sf.
func newMachine(topo *numa.Topology, sf float64) (*numa.Machine, *sched.Scheduler) {
	if topo == nil {
		topo = ScaledTopology(sf)
	}
	machine := numa.NewMachine(topo)
	return machine, sched.New(machine, sched.Config{})
}

// server is one DBMS process on a rig's machine: its store loaded with a
// TPC-H dataset, its cgroup and its engine.
type server struct {
	store   *db.Store
	dataset *tpch.Dataset
	group   *sched.CGroup
	engine  *db.Engine
}

// newServer loads a TPC-H database as process pid and starts its engine
// inside a fresh cgroup called name.
func newServer(sc *sched.Scheduler, name string, pid int, sf float64, seed uint64, placement db.Placement) (server, error) {
	store := db.NewStore(sc.Machine())
	store.SetLoadPID(pid)
	ds, err := tpch.Load(store, tpch.Config{SF: sf, Seed: seed})
	if err != nil {
		return server{}, err
	}
	group := sc.NewCGroup(name)
	group.AddPID(pid)
	eng, err := db.NewEngine(store, db.Config{Scheduler: sc, PID: pid, Placement: placement})
	if err != nil {
		return server{}, err
	}
	return server{store: store, dataset: ds, group: group, engine: eng}, nil
}

// NewRig builds the machine, loads TPC-H, starts the engine and, unless
// ModeOS, attaches the mechanism.
func NewRig(opts Options) (*Rig, error) {
	if opts.SF == 0 {
		opts.SF = 0.01
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	machine, sc := newMachine(opts.Topology, opts.SF)
	if opts.ControlPeriod == 0 {
		opts.ControlPeriod = machine.Timebase().ControlPeriod
	}
	topo := machine.Topology()
	srv, err := newServer(sc, "dbms", DBMSPID, opts.SF, opts.Seed, opts.Placement)
	if err != nil {
		return nil, err
	}
	group := srv.group
	r := &Rig{
		Machine: machine,
		Sched:   sc,
		Store:   srv.store,
		Engine:  srv.engine,
		CGroup:  group,
		Dataset: srv.dataset,
		Opts:    opts,
	}
	alloc, err := allocatorFor(opts.Mode, topo, func() elastic.ResidencyFunc { return touchDeltaResidency(machine) })
	if err != nil {
		return nil, err
	}
	if alloc != nil {
		mech, err := elastic.New(elastic.Config{
			Scheduler:     sc,
			CGroup:        group,
			Allocator:     alloc,
			Strategy:      opts.Strategy,
			ControlPeriod: opts.ControlPeriod,
		})
		if err != nil {
			return nil, err
		}
		r.Mech = mech
	}
	if opts.Bus != nil {
		r.attachBus(opts.Bus)
	}
	return r, nil
}

// AttachBus wires one externally owned bus into every producer of the
// rig — the fleet uses it to light all machines on one shared stream
// after construction. Attach before subscribing consumers.
func (r *Rig) AttachBus(b *obs.Bus) { r.attachBus(b) }

// attachBus wires one bus into every producer of the rig.
func (r *Rig) attachBus(b *obs.Bus) {
	r.Bus = b
	r.Sched.SetBus(b)
	r.Engine.SetBus(b, "")
	if r.Mech != nil {
		r.Mech.SetBus(b, "")
	}
}

// EnsureBus returns the rig's bus, attaching a default-capacity one on
// first use.
func (r *Rig) EnsureBus() *obs.Bus {
	if r.Bus == nil {
		r.attachBus(obs.NewBus(0))
	}
	return r.Bus
}

// EnableProbe starts periodic Snapshot sampling driven by Advance: every
// interval cycles (zero selects the rig's control period) the probe
// records allocated cores, the strategy reading, interconnect and memory
// traffic, and the energy estimate of the window. Open-loop drivers additionally wire their
// backlog and latency sources for the duration of a phase.
func (r *Rig) EnableProbe(interval uint64) *obs.Probe {
	if r.Probe != nil {
		return r.Probe
	}
	if interval == 0 {
		interval = r.Opts.ControlPeriod
	}
	cfg := obs.ProbeConfig{
		Machine:   r.Machine,
		Every:     interval,
		Allocated: func() int { return r.CGroup.CPUs().Count() },
		Scheduler: r.Sched,
	}
	if r.Mech != nil {
		strategy, group := r.Mech.Strategy(), r.CGroup
		cfg.Reading = func(window numa.Counters) int {
			return strategy.Reading(elastic.Sample{Window: window, Allocated: group.CPUs()})
		}
	}
	r.Probe = obs.NewProbe(cfg)
	return r.Probe
}

// touchDeltaResidency returns the adaptive mode's residency source for a
// single-tenant rig: per-node touches of homed data since the previous
// allocator decision (the paper's per-PID page accounting, restricted to
// pages the running threads actually use). The first call returns the
// touches since this constructor ran; NewRig calls it on a machine no
// thread has run on yet, so that is every touch so far. Every call writes
// the same vector, which the ResidencyFunc contract allows.
func touchDeltaResidency(machine *numa.Machine) elastic.ResidencyFunc {
	window := machine.NewCounterWindow()
	out := make([]int, machine.Topology().NodeCount)
	return func() []int {
		nodes := window.Advance().Nodes
		for i, n := range nodes {
			out[i] = int(n.DataTouches)
		}
		return out
	}
}

// Tick advances the rig by one scheduler quantum, running the mechanism's
// control loop when present.
func (r *Rig) Tick() { r.Advance(1) }

// Advance runs n quanta, the one-machine Fleet.Advance: it stops at a
// barrier wherever the rig has something due, so a control evaluation or
// probe sample fires on exactly the quantum a Tick-by-Tick run fires it
// on, and between barriers an idle scheduler advances in one bulk step.
// A Quiet mechanism or probe sets no barrier of its own: nothing inside
// Advance can end its fixed point, and its Maybe at the next barrier
// settles every period or sample due by then.
func (r *Rig) Advance(n int) {
	for n > 0 {
		quiet := r.Mech != nil && r.Mech.Quiet()
		s := QuantaUntil(r.Machine.Now(), r.NextDue(!quiet), r.Sched.Quantum(), n)
		r.Sched.Advance(s)
		if r.Mech != nil {
			r.Mech.Maybe()
		}
		if r.Probe != nil {
			r.Probe.Maybe()
		}
		n -= s
	}
}

// NextDue returns the cycle of the rig's next barrier (the maximum uint64
// without one): the probe's next sample unless the probe is Quiet and,
// with ownMech, the mechanism's next evaluation — false under a cluster
// arbiter, which steps it instead. It asks the probe's Quiet at the start
// of the stretch it bounds, as Probe.Quiet requires.
func (r *Rig) NextDue(ownMech bool) uint64 {
	next := ^uint64(0)
	if ownMech && r.Mech != nil {
		next = r.Mech.NextAt()
	}
	if r.Probe != nil && !r.Probe.Quiet() {
		next = min(next, r.Probe.NextAt())
	}
	return next
}

// QuantaUntil returns how many quanta, at least 1 and at most max, take
// the clock from now to the first quantum edge at or after due:
// ceil((due-now)/quantum), the jump of OpenLoop, Rig.Advance and the
// fleet's stretch. Due times are checked after a quantum runs (mechanism,
// probe, arrival, deadline) or before the next does (fault edge); a jump
// ends exactly at that edge.
func QuantaUntil(now, due, quantum uint64, max int) int {
	if due <= now || max <= 1 {
		return 1
	}
	return int(min((due-now-1)/quantum+1, uint64(max)))
}

// AllocatedCores returns how many cores the DBMS currently owns.
func (r *Rig) AllocatedCores() int { return r.CGroup.CPUs().Count() }
