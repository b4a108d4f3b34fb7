package elastic

import (
	"fmt"

	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/petrinet"
	"elasticore/internal/sched"
)

// TransitionEvent records one control-period evaluation for the state
// transition timeline (paper Figure 7).
type TransitionEvent struct {
	Now    uint64 // virtual time, cycles
	Label  string // e.g. "t1-Overload-t5"
	U      int    // the reading fed to the net
	NAlloc int    // allocated cores after the action
	Core   numa.CoreID
	Action petrinet.Decision
}

// BacklogFunc reports the instantaneous depth of the workload's
// admission queue: requests that have arrived but have not yet been
// submitted to the engine. Closed-loop drivers have no such queue; the
// open-loop driver (workload.OpenDriver) wires its own.
type BacklogFunc func() int

// Config assembles a Mechanism.
type Config struct {
	// Scheduler and CGroup identify the OS facilities the mechanism acts
	// through; CGroup must already contain the DBMS PIDs.
	Scheduler *sched.Scheduler
	CGroup    *sched.CGroup
	// Allocator is the allocation mode (dense, sparse, adaptive).
	Allocator Allocator
	// Strategy is the state-transition metric (CPU load or HT/IMC ratio).
	Strategy Strategy
	// ControlPeriod is the sampling interval in cycles; zero selects 50 ms
	// at the machine clock.
	ControlPeriod uint64
	// InitialCores is how many cores to hand out at start; zero selects 1
	// (the paper's default marking m0(Provision) = {1}).
	InitialCores int
	// Backlog, when set, feeds admission-queue pressure into the control
	// loop (see SetBacklog).
	Backlog BacklogFunc
	// BacklogPerCore is the queued-request depth per allocated core the
	// mechanism tolerates before treating the window as overload
	// regardless of the strategy reading; zero selects 4.
	BacklogPerCore int
}

// Mechanism is the elastic multi-core allocation mechanism: a single
// instance supports all DBMS clients (Section V). Call Maybe from the
// simulation loop; it self-schedules on the control period.
type Mechanism struct {
	cfg   Config
	net   *petrinet.ElasticNet
	topo  *numa.Topology
	total int
	thMax int

	window   *numa.CounterWindow
	nextEval uint64

	events []TransitionEvent
	// TokenFlows counts net evaluations (overhead accounting).
	TokenFlows uint64

	// bus, when attached, receives KindTransition events stamped with
	// busTenant; nil keeps the control loop dark.
	bus       *obs.Bus
	busTenant string
}

// New wires a mechanism. It immediately shrinks the cgroup to the initial
// allocation, so the OS starts with the minimum core set.
func New(cfg Config) (*Mechanism, error) {
	if cfg.Scheduler == nil || cfg.CGroup == nil {
		return nil, fmt.Errorf("elastic: Scheduler and CGroup are required")
	}
	if cfg.Allocator == nil {
		return nil, fmt.Errorf("elastic: Allocator is required")
	}
	if cfg.Strategy == nil {
		cfg.Strategy = CPULoadStrategy{}
	}
	machine := cfg.Scheduler.Machine()
	topo := machine.Topology()
	if cfg.ControlPeriod == 0 {
		cfg.ControlPeriod = topo.SecondsToCycles(50e-3)
	}
	if cfg.InitialCores <= 0 {
		cfg.InitialCores = 1
	}
	if cfg.BacklogPerCore <= 0 {
		cfg.BacklogPerCore = 4
	}

	min, max := cfg.Strategy.Thresholds()
	m := &Mechanism{
		cfg:    cfg,
		net:    petrinet.NewElasticNet(min, max, topo.TotalCores()),
		topo:   topo,
		total:  topo.TotalCores(),
		thMax:  max,
		window: machine.NewCounterWindow(),
	}

	// Start from an empty set and allocate the initial cores through the
	// mode, so even the first cores follow its placement order.
	set := sched.CPUSet(0)
	for i := 0; i < cfg.InitialCores; i++ {
		core, ok := cfg.Allocator.Next(set)
		if !ok {
			break
		}
		set = set.Add(core)
	}
	cfg.CGroup.SetCPUs(set)
	m.net.SetNAlloc(set.Count())
	m.nextEval = machine.Now() + cfg.ControlPeriod
	return m, nil
}

// SetBus attaches the telemetry bus the mechanism publishes its
// control-period transition firings onto (nil detaches); tenant labels
// the events under consolidation ("" for a single-tenant rig).
func (m *Mechanism) SetBus(b *obs.Bus, tenant string) { m.bus, m.busTenant = b, tenant }

// Bus returns the attached telemetry bus, nil when dark.
func (m *Mechanism) Bus() *obs.Bus { return m.bus }

// Net exposes the underlying PrT net (matrices, marking inspection).
func (m *Mechanism) Net() *petrinet.ElasticNet { return m.net }

// Allocated returns the cpuset currently handed to the OS.
func (m *Mechanism) Allocated() sched.CPUSet { return m.cfg.CGroup.CPUs() }

// Events returns the state-transition timeline recorded so far.
func (m *Mechanism) Events() []TransitionEvent { return m.events }

// ControlPeriod returns the sampling interval in cycles.
func (m *Mechanism) ControlPeriod() uint64 { return m.cfg.ControlPeriod }

// NextAt returns the cycle of the next control evaluation. The parallel
// fleet engine caps decoupled stretches at it so Maybe fires on exactly
// the quantum a sequential run would have fired on.
func (m *Mechanism) NextAt() uint64 { return m.nextEval }

// Maybe runs one control step if the control period has elapsed. It is
// cheap to call every scheduler tick.
func (m *Mechanism) Maybe() {
	if m.cfg.Scheduler.Machine().Now() < m.nextEval {
		return
	}
	m.Step()
}

// Desire is the outcome of one control evaluation: what the net asked
// for, the reading that produced it, and the counter window it judged. It
// is the unit of demand a machine-level arbiter collects from each
// tenant's mechanism.
type Desire struct {
	// N is the allocation size the net asks for (current ±1, floored at 1).
	N int
	// U is the strategy reading fed to the net.
	U int
	// Label is the fired transition path (e.g. "t1-Overload-t5").
	Label string
	// Decision is the net's verdict for this window.
	Decision petrinet.Decision
	// Window is the counter delta the reading was computed over. It
	// shares the mechanism's reusable window buffers: it is valid until
	// the mechanism's next evaluation (Step or DesiredStep), and a caller
	// keeping it longer must Clone it.
	Window numa.Counters
	// Backlog is the admission-queue depth observed this evaluation
	// (zero when no backlog source is wired).
	Backlog int
}

// evaluate runs the shared control-evaluation prologue: sample the
// counter window, read the strategy and fire the PrT net. The net's
// Provision marking is synchronized with the cgroup before evaluating (an
// earlier decision may not have been honoured).
func (m *Mechanism) evaluate() Desire {
	window := m.window.Advance()
	m.nextEval = m.cfg.Scheduler.Machine().Now() + m.cfg.ControlPeriod

	current := m.cfg.CGroup.CPUs()
	u := m.cfg.Strategy.Reading(Sample{Window: window, Allocated: current})
	backlog := 0
	if m.cfg.Backlog != nil {
		backlog = m.cfg.Backlog()
		// A deep admission queue means cores are the bottleneck even when
		// the counter-based reading sits mid-range (e.g. a short window
		// that sampled mostly queueing, not execution): clamp the reading
		// to the overload threshold so the net fires t1.
		if backlog > m.cfg.BacklogPerCore*current.Count() && u < m.thMax {
			u = m.thMax
		}
	}
	m.net.SetNAlloc(current.Count())
	ev := m.net.Evaluate(u)
	m.TokenFlows++

	desired := current.Count()
	switch ev.Decision {
	case petrinet.DecisionAllocate:
		if desired < m.total {
			desired++
		}
	case petrinet.DecisionRelease:
		if desired > 1 {
			desired--
		}
	}
	return Desire{N: desired, U: u, Label: ev.Label, Decision: ev.Decision, Window: window, Backlog: backlog}
}

// Step samples the counter window, evaluates the PrT net and applies the
// resulting action to the cgroup cpuset — the complete
// rule-condition-action pipeline of Section III.
func (m *Mechanism) Step() {
	d := m.evaluate()
	current := m.cfg.CGroup.CPUs()
	before := current.Count()
	event := TransitionEvent{
		Now:    m.cfg.Scheduler.Machine().Now(),
		Label:  d.Label,
		U:      d.U,
		Action: d.Decision,
	}
	switch d.Decision {
	case petrinet.DecisionAllocate:
		if core, ok := m.cfg.Allocator.Next(current); ok {
			current = current.Add(core)
			m.cfg.CGroup.SetCPUs(current)
			event.Core = core
		}
	case petrinet.DecisionRelease:
		if core, ok := m.cfg.Allocator.Victim(current); ok && current.Count() > 1 {
			current = current.Remove(core)
			m.cfg.CGroup.SetCPUs(current)
			event.Core = core
		}
	}
	m.net.SetNAlloc(current.Count())
	event.NAlloc = current.Count()
	m.events = append(m.events, event)
	if m.bus != nil {
		core := int32(-1)
		if d.Decision != petrinet.DecisionNone && event.NAlloc != before {
			core = int32(event.Core)
		}
		m.bus.Publish(obs.Event{
			Kind:   obs.KindTransition,
			Now:    event.Now,
			Core:   core,
			V1:     int64(d.U),
			V2:     int64(event.NAlloc),
			Set:    uint64(current),
			Label:  d.Label,
			Tenant: m.busTenant,
		})
	}
}

// DesiredStep runs one control evaluation — sampling the counter window,
// reading the strategy and firing the PrT net — but does NOT touch the
// cgroup. It returns the allocation size the net asks for, leaving the
// grant decision to a machine-level arbiter that weighs the desires of
// several tenant mechanisms against each other (internal/tenant). No
// TransitionEvent is recorded: the allocation applied is the arbiter's
// call, and its AllocationEvent timeline is the record under
// arbitration. The caller is responsible for re-synchronizing the net
// marking with the allocation it actually applies, via Net().SetNAlloc.
func (m *Mechanism) DesiredStep() Desire {
	d := m.evaluate()
	if m.bus != nil {
		// Under arbitration the mechanism applies nothing itself: V2 is
		// the allocation the net *asks* for; the arbiter's KindGrant
		// events record what was applied.
		m.bus.Publish(obs.Event{
			Kind:   obs.KindTransition,
			Now:    m.cfg.Scheduler.Machine().Now(),
			Core:   -1,
			V1:     int64(d.U),
			V2:     int64(d.N),
			Set:    uint64(m.cfg.CGroup.CPUs()),
			Label:  d.Label,
			Tenant: m.busTenant,
		})
	}
	return d
}

// Due reports whether the control period has elapsed since the last
// evaluation (Step or DesiredStep).
func (m *Mechanism) Due() bool {
	return m.cfg.Scheduler.Machine().Now() >= m.nextEval
}

// Strategy returns the mechanism's state-transition strategy.
func (m *Mechanism) Strategy() Strategy { return m.cfg.Strategy }

// Allocator returns the mechanism's allocation mode, letting an external
// arbiter apply grants through the same placement order the mechanism
// itself would use (Next to grow, Victim to shrink).
func (m *Mechanism) Allocator() Allocator { return m.cfg.Allocator }

// SetBacklog wires (or, with nil, unwires) the admission-queue pressure
// source after construction. Rigs build the mechanism before any driver
// exists, so the open-loop driver attaches its queue here for the
// duration of a phase: when the queued-request count exceeds
// BacklogPerCore times the allocated cores, the control loop treats the
// window as overload regardless of the strategy reading — allocation
// reacts to the backlog users experience, not only to the counters the
// already-admitted queries generate.
func (m *Mechanism) SetBacklog(f BacklogFunc) { m.cfg.Backlog = f }
