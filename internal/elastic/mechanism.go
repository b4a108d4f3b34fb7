package elastic

import (
	"fmt"
	"math/bits"

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
	// Allocator is the allocation mode (dense, sparse, adaptive,
	// node-fill, hop-min, scatter).
	Allocator Allocator
	// Strategy is the state-transition metric (CPU load or HT/IMC ratio).
	Strategy Strategy
	// ControlPeriod is the sampling interval in cycles; zero selects the
	// machine's timebase control period.
	ControlPeriod uint64
	// InitialCores is how many cores to hand out at start; zero selects 1
	// (the paper's default marking m0(Provision) = {1}).
	InitialCores int
	// Backlog, when set, feeds admission-queue pressure into the control
	// loop (see SetBacklog).
	Backlog BacklogFunc
}

// backlogPerCore is the queued-request depth per allocated core the
// mechanism tolerates before treating the window as overload regardless
// of the strategy reading.
const backlogPerCore = 4

// Mechanism is the elastic multi-core allocation mechanism: a single
// instance supports all DBMS clients (Section V). Call Maybe from the
// simulation loop; it self-schedules on the control period.
type Mechanism struct {
	cfg   Config
	net   *petrinet.ElasticNet
	topo  *numa.Topology
	thMax int
	// stride is the control period rounded up to the scheduler's quantum
	// grid: how far apart a loop that calls Maybe every quantum evaluates.
	stride uint64

	window   *numa.CounterWindow
	nextEval uint64

	// events holds the periods in order, the settled ones as repeats of
	// the quiet event (see Events).
	events obs.Timeline[TransitionEvent]
	// TokenFlows counts control periods, evaluated or settled (overhead
	// accounting).
	TokenFlows uint64
	// Replayed counts the periods of TokenFlows that Maybe settled at the
	// quiet fixed point without evaluating the net.
	Replayed uint64

	// quiet is set by a Step that left the mechanism at its fixed point,
	// and calm records that fixed point (see Quiet).
	quiet bool
	calm  calm

	// bus, when attached, receives KindTransition events stamped with
	// busTenant; nil keeps the control loop dark.
	bus       *obs.Bus
	busTenant string
}

// calm is the quiet fixed point a Step recorded: its event, whose Now
// moves on to each settled period, and the inputs that must not change.
type calm struct {
	event   TransitionEvent
	cpus    sched.CPUSet
	backlog int
	ticked  uint64
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
		cfg.ControlPeriod = machine.Timebase().ControlPeriod
	}
	if cfg.InitialCores <= 0 {
		cfg.InitialCores = 1
	}

	min, max := cfg.Strategy.Thresholds()
	q := cfg.Scheduler.Quantum()
	m := &Mechanism{
		cfg:    cfg,
		net:    petrinet.NewElasticNet(min, max, topo.TotalCores()),
		topo:   topo,
		thMax:  max,
		stride: (cfg.ControlPeriod + q - 1) / q * q,
		window: machine.NewCounterWindow(),
	}

	// Even the first cores follow the mode's placement order.
	m.Place(cfg.InitialCores, 0)
	m.nextEval = machine.Now() + cfg.ControlPeriod
	return m, nil
}

// Resize moves the governed cpuset to n cores, never fewer than one. It
// is the one writer of that cpuset: it releases through the mode's Victim
// order and grants through Next, skipping occupied — the cores other
// tenants hold, zero when the mechanism has the machine to itself. The
// cgroup is written only when the set changed, and the net's Provision
// marking is left equal to the set's size. It returns the resulting set.
func (m *Mechanism) Resize(n int, occupied sched.CPUSet) sched.CPUSet {
	return m.resize(m.cfg.CGroup.CPUs(), n, occupied)
}

// Place is Resize from the empty set: the cgroup's cpuset is discarded and
// n cores are placed afresh. occupied must leave a core free.
func (m *Mechanism) Place(n int, occupied sched.CPUSet) sched.CPUSet {
	return m.resize(0, n, occupied)
}

func (m *Mechanism) resize(cur sched.CPUSet, n int, occupied sched.CPUSet) sched.CPUSet {
	n = max(n, 1)
	for cur.Count() > n {
		core, ok := m.cfg.Allocator.Victim(cur)
		if !ok {
			break
		}
		cur = cur.Remove(core)
	}
	for cur.Count() < n {
		core, ok := m.cfg.Allocator.Next(cur, occupied|cur)
		if !ok {
			break
		}
		cur = cur.Add(core)
	}
	if cur != m.cfg.CGroup.CPUs() {
		m.cfg.CGroup.SetCPUs(cur)
	}
	if m.net.NAlloc() != cur.Count() {
		m.net.SetNAlloc(cur.Count())
	}
	return cur
}

// SetBus attaches the telemetry bus the mechanism publishes its
// control-period transition firings onto (nil detaches); tenant labels
// the events under consolidation ("" for a single-tenant rig).
func (m *Mechanism) SetBus(b *obs.Bus, tenant string) { m.bus, m.busTenant = b, tenant }

// Net exposes the PrT net's decision function (its Provision marking).
func (m *Mechanism) Net() *petrinet.ElasticNet { return m.net }

// ResidencyReads counts the residency vectors the allocation mode has read
// to rank nodes: one per adaptive grant or release, none for the
// fixed-order and topology-aware modes.
func (m *Mechanism) ResidencyReads() uint64 {
	if a, ok := m.cfg.Allocator.(*adaptiveAllocator); ok {
		return a.reads
	}
	return 0
}

// Allocated returns the cpuset currently handed to the OS.
func (m *Mechanism) Allocated() sched.CPUSet { return m.cfg.CGroup.CPUs() }

// Events returns the state-transition timeline recorded so far, one event
// per control period. Settled periods are stored as runs of the quiet
// event; once one exists, Events expands them into a fresh slice, so the
// result may or may not alias the mechanism's own storage and must not be
// written to.
func (m *Mechanism) Events() []TransitionEvent {
	return m.events.Expand(func(ev TransitionEvent) TransitionEvent {
		ev.Now += m.stride
		return ev
	})
}

// NextAt returns the cycle of the next control evaluation. The parallel
// fleet engine caps decoupled stretches at it so Maybe fires on exactly
// the quantum a sequential run would have fired on.
func (m *Mechanism) NextAt() uint64 { return m.nextEval }

// Maybe runs one control step if the control period has elapsed. It is
// cheap to call every scheduler tick. While the mechanism is Quiet it
// evaluates nothing: it settles every period due by now, recording and
// publishing each as the Step a per-quantum caller would have taken.
func (m *Mechanism) Maybe() {
	now := m.cfg.Scheduler.Machine().Now()
	if now < m.nextEval {
		return
	}
	if m.Quiet() {
		m.settle((now - m.calm.event.Now) / m.stride)
		return
	}
	m.Step()
}

// Quiet reports whether the mechanism sits at its quiet fixed point. A
// Step reaches it when its window was one stride in which no core ran and
// no node counter moved, and its decision was DecisionNone. The fixed
// point holds while the scheduler stays Idle without ticking a quantum,
// the cgroup keeps that cpuset and the backlog reads the same: every
// period then samples the same window (Strategy.Reading is a pure function
// of it) and fires the same path, which does nothing. The first failed
// check ends the fixed point until a Step finds it again.
func (m *Mechanism) Quiet() bool {
	if !m.quiet {
		return false
	}
	s, c := m.cfg.Scheduler, &m.calm
	m.quiet = s.Idle() && s.Ticked() == c.ticked && m.cfg.CGroup.CPUs() == c.cpus && m.backlog() == c.backlog
	return m.quiet
}

// settle takes k >= 1 due periods at the quiet fixed point — k is at least
// one because, with no quantum ticked, the clock moved in whole quanta
// since the last period and the next is due. Each period records and
// publishes the quiet event a stride after the previous; the counter
// window restarts at the last of them, as that period's Advance would
// have left it.
func (m *Mechanism) settle(k uint64) {
	ev := &m.calm.event
	if m.bus != nil {
		e := ev.busEvent(m.calm.cpus, -1, m.busTenant)
		for j := uint64(0); j < k; j++ {
			e.Now += m.stride
			m.bus.Publish(e)
		}
	}
	ev.Now += k * m.stride
	m.TokenFlows += k
	m.Replayed += k
	m.events.Repeat(int(k))
	m.window.Restart(ev.Now)
	m.nextEval = ev.Now + m.cfg.ControlPeriod
}

// backlog reads the admission-queue depth, zero with no source wired.
func (m *Mechanism) backlog() int {
	if m.cfg.Backlog == nil {
		return 0
	}
	return m.cfg.Backlog()
}

// Desire is the outcome of one control evaluation: what the net asked
// for, the reading that produced it, and the counter window it judged. It
// is the unit of demand a machine-level arbiter collects from each
// tenant's mechanism.
type Desire struct {
	// N is the allocation size the net asks for: the current size, one
	// more, or one fewer, always within [1, total cores].
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
	// keeping it longer must copy its Nodes and Cores.
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
	m.quiet = false

	current := m.cfg.CGroup.CPUs()
	u := m.cfg.Strategy.Reading(Sample{Window: window, Allocated: current})
	// A deep admission queue means cores are the bottleneck even when the
	// counter-based reading sits mid-range (e.g. a short window that
	// sampled mostly queueing, not execution): clamp the reading to the
	// overload threshold so the net fires t1.
	backlog := m.backlog()
	if backlog > backlogPerCore*current.Count() && u < m.thMax {
		u = m.thMax
	}
	m.net.SetNAlloc(current.Count())
	ev := m.net.Evaluate(u)
	m.TokenFlows++
	return Desire{N: ev.NAlloc, U: u, Label: ev.Label, Decision: ev.Decision, Window: window, Backlog: backlog}
}

// Step samples the counter window, evaluates the PrT net and applies the
// resulting action to the cgroup cpuset — the complete
// rule-condition-action pipeline of Section III.
func (m *Mechanism) Step() {
	d := m.evaluate()
	before := m.cfg.CGroup.CPUs()
	current := m.Resize(d.N, 0)
	event := TransitionEvent{
		Now:    m.cfg.Scheduler.Machine().Now(),
		Label:  d.Label,
		U:      d.U,
		NAlloc: current.Count(),
		Action: d.Decision,
	}
	// A step moves at most one core: the one member of the difference.
	if diff := uint64(before ^ current); diff != 0 {
		event.Core = numa.CoreID(bits.TrailingZeros64(diff))
	}
	m.events.Append(event)
	if d.Decision == petrinet.DecisionNone && d.Window.IdleFor(m.stride) {
		m.quiet = true
		m.calm = calm{event: event, cpus: current, backlog: d.Backlog, ticked: m.cfg.Scheduler.Ticked()}
	}
	if m.bus != nil {
		core := int32(-1)
		if current != before {
			core = int32(event.Core)
		}
		m.bus.Publish(event.busEvent(current, core, m.busTenant))
	}
}

// busEvent is the KindTransition event that publishes e, given the cpuset
// after its action and the core it moved (-1 for none).
func (e TransitionEvent) busEvent(set sched.CPUSet, core int32, tenant string) obs.Event {
	return obs.Event{
		Kind:   obs.KindTransition,
		Now:    e.Now,
		Core:   core,
		V1:     int64(e.U),
		V2:     int64(e.NAlloc),
		Set:    uint64(set),
		Label:  e.Label,
		Tenant: tenant,
	}
}

// DesiredStep runs one control evaluation — sampling the counter window,
// reading the strategy and firing the PrT net — but does NOT touch the
// cgroup. It returns the allocation size the net asks for, leaving the
// grant decision to a machine-level arbiter that weighs the desires of
// several tenant mechanisms against each other (internal/tenant). No
// TransitionEvent is recorded: the allocation applied is the arbiter's
// call, and its AllocationEvent timeline is the record under
// arbitration. The arbiter applies its grant through Resize; until then
// the net's Provision marking stays at the allocation held.
func (m *Mechanism) DesiredStep() Desire {
	d := m.evaluate()
	m.net.SetNAlloc(m.cfg.CGroup.CPUs().Count())
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

// SetBacklog wires (or, with nil, unwires) the admission-queue pressure
// source after construction. Rigs build the mechanism before any driver
// exists, so the open-loop driver attaches its queue here for the
// duration of a phase: when the queued-request count exceeds
// backlogPerCore times the allocated cores, the control loop treats the
// window as overload regardless of the strategy reading — allocation
// reacts to the backlog users experience, not only to the counters the
// already-admitted queries generate.
func (m *Mechanism) SetBacklog(f BacklogFunc) { m.cfg.Backlog = f }
