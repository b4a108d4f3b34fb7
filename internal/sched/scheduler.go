package sched

import (
	"fmt"
	"math/bits"

	"elasticore/internal/deque"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
)

// Config tunes the scheduler model.
type Config struct {
	// Quantum is the scheduling time slice in cycles. Zero selects the
	// machine's timebase quantum.
	Quantum uint64
}

const (
	// balancePeriod is how many ticks pass between load-balancing passes.
	balancePeriod = 4
	// balanceThreshold is the queue-length imbalance (busiest minus
	// idlest) that triggers a steal.
	balanceThreshold = 2
)

// Stats are the scheduler's own cumulative counters, complementing the
// machine's hardware counters.
type Stats struct {
	// Spawned counts threads ever created.
	Spawned uint64
	// StolenTasks counts threads moved by the load balancer (Fig 13 (d)).
	StolenTasks uint64
	// Migrations counts every reassignment of a thread to a different
	// core, whatever the cause (balancing, cpuset shrink, wake-up move).
	Migrations uint64
	// CrossNodeMigrations counts the subset of migrations that changed
	// NUMA node, losing all cache affinity.
	CrossNodeMigrations uint64
	// TicksRun counts the quanta the scheduler advanced through, whether
	// Tick ran them or Advance skipped them in bulk while idle: the clock's
	// cycles since New, in quanta. Scheduler.Ticked counts the first kind
	// alone.
	TicksRun uint64
	// Wakeups counts Blocked threads put back on a run queue.
	Wakeups uint64
	// SpuriousWakeups counts the wake-ups whose thread found nothing to
	// do: its first slice used zero cycles and it blocked again. Under
	// WakeAll's broadcast this is the per-operator thread churn of the
	// paper's Figures 4 and 5, as a number.
	SpuriousWakeups uint64
}

// procTable is one process's thread table: a slot per thread in spawn
// order plus a bitmap of the slots whose thread is Blocked. TIDs are
// handed out monotonically, so slot order is ascending-TID order and
// WakeAll reads its wake order straight off the bitmap; parking and
// unparking a thread is one bit flip through Thread.proc/Thread.slot.
// An exiting thread leaves a nil slot behind; compact squeezes those out.
// scratch is WakeAll's copy of the bitmap words, reused so a steady-state
// WakeAll allocates nothing.
type procTable struct {
	group    *CGroup   // nil while the process is in no cgroup
	slots    []*Thread // nil where the thread has exited
	live     int       // non-nil slots
	blocked  []uint64  // bit i set <=> slots[i].state == Blocked
	nblocked int
	scratch  []uint64
}

// compactMinSlots is the table size below which exited threads' slots
// are not worth reclaiming.
const compactMinSlots = 128

// add gives a freshly spawned thread the next slot.
func (p *procTable) add(t *Thread) {
	t.proc, t.slot = p, len(p.slots)
	p.slots = append(p.slots, t)
	p.live++
	if t.slot>>6 == len(p.blocked) {
		p.blocked = append(p.blocked, 0)
	}
}

// remove vacates an exiting thread's slot and compacts the table once
// fewer than half its slots are live, so memory follows the live thread
// count even though a long-lived thread pins the front of the table.
func (p *procTable) remove(t *Thread) {
	p.slots[t.slot] = nil
	p.live--
	if len(p.slots) >= compactMinSlots && 2*p.live < len(p.slots) {
		p.compact()
	}
}

// compact squeezes the nil slots out in place, preserving slot order,
// and rebuilds the bitmap over the new indices. Threads exit from
// Running, never from Blocked, so every set bit survives.
func (p *procTable) compact() {
	clear(p.blocked)
	n := 0
	for _, t := range p.slots {
		if t == nil {
			continue
		}
		t.slot = n
		p.slots[n] = t
		if t.state == Blocked {
			p.blocked[n>>6] |= 1 << (n & 63)
		}
		n++
	}
	clear(p.slots[n:])
	p.slots = p.slots[:n]
	p.blocked = p.blocked[:(n+63)>>6]
}

// Scheduler is the OS CPU scheduler model.
type Scheduler struct {
	machine *numa.Machine
	topo    *numa.Topology
	cfg     Config

	queues  []deque.Deque[*Thread] // per-core FIFO run queues
	queued  int                    // total queued (runnable) threads
	surplus int                    // queues holding >= 2 threads (steal candidates)
	threads map[TID]*Thread
	nextTID TID

	// gen moves with every queue push, pop and remove and every cgroup
	// write. stealGen, stealFrom and stealSet cache idleSteal's last
	// fruitless scan, valid while gen == stealGen: the busiest queue and
	// the union of its threads' allowed sets, empty when no queue holds
	// two threads. The zero cache is the empty scheduler's answer.
	gen       uint64
	stealGen  uint64
	stealFrom numa.CoreID
	stealSet  CPUSet

	// procs holds one thread table per PID.
	procs map[int]*procTable

	groups  map[string]*CGroup
	rootSet CPUSet

	// stats holds every counter but TicksRun, which Stats reads off the
	// clock: start is the machine's cycle at New, and ticked counts the
	// quanta Tick ran.
	stats  Stats
	start  uint64
	ticked uint64

	// execCtx is the per-core run-slice scratch, reused so steady-state
	// execution does not allocate.
	execCtx []ExecContext

	// bus, when attached, receives KindMigration and KindRunSlice events;
	// nil (the default) keeps the hot path dark. The bus is the only
	// observation surface — the pre-bus OnMigrate/OnRunSlice single
	// hooks (replace-on-attach, so a second consumer silently clobbered
	// the first) were deleted once every consumer moved over.
	bus *obs.Bus

	// slow, when non-nil, holds a per-core cycle-cost multiplier for
	// fault injection: factor 1 is a healthy core, factor F makes every
	// unit of work cost F wall cycles, faults.StallFactor freezes the
	// core outright. nil (the default) keeps the hot path free of the
	// division.
	slow []uint64
}

// New creates a scheduler over the machine with the given configuration.
func New(m *numa.Machine, cfg Config) *Scheduler {
	topo := m.Topology()
	if cfg.Quantum == 0 {
		cfg.Quantum = m.Timebase().Quantum
	}
	return &Scheduler{
		machine: m,
		topo:    topo,
		cfg:     cfg,
		start:   m.Now(),
		queues:  make([]deque.Deque[*Thread], topo.TotalCores()),
		threads: make(map[TID]*Thread),
		nextTID: 1,
		procs:   make(map[int]*procTable),
		groups:  make(map[string]*CGroup),
		rootSet: FullSet(topo),
		execCtx: make([]ExecContext, topo.TotalCores()),
	}
}

// Machine returns the underlying hardware model.
func (s *Scheduler) Machine() *numa.Machine { return s.machine }

// SetBus attaches the telemetry bus the scheduler publishes migration
// and run-slice events onto (nil detaches). Attach once, before
// subscribing consumers: replacing an attached bus orphans its
// subscribers.
func (s *Scheduler) SetBus(b *obs.Bus) { s.bus = b }

// Lit reports whether a bus is attached: only then is a thread's Name
// ever read.
func (s *Scheduler) Lit() bool { return s.bus != nil }

// SetCoreSlowdown installs a cycle-cost multiplier on one core: 1
// restores full speed, factor F makes work cost F wall cycles per
// retired cycle, and a factor larger than the quantum (canonically
// faults.StallFactor) freezes the core — threads stay queued but make
// no progress. The per-core table is allocated on first use; an
// untouched scheduler never pays for the feature.
func (s *Scheduler) SetCoreSlowdown(core numa.CoreID, factor uint64) {
	if factor == 0 {
		factor = 1
	}
	if s.slow == nil {
		if factor == 1 {
			return
		}
		s.slow = make([]uint64, s.topo.TotalCores())
		for i := range s.slow {
			s.slow[i] = 1
		}
	}
	s.slow[int(core)] = factor
}

// Stats returns a copy of the scheduler counters.
func (s *Scheduler) Stats() Stats {
	st := s.stats
	st.TicksRun = s.ticksRun()
	return st
}

// ticksRun is the number of quanta the clock has moved since New. Only the
// scheduler moves its machine's clock, and always by whole quanta.
func (s *Scheduler) ticksRun() uint64 {
	return (s.machine.Now() - s.start) / s.cfg.Quantum
}

// IdleSkipped returns how many of Stats().TicksRun were idle quanta
// advanced in bulk, not by Tick: the simulator's cost, hence not in Stats.
func (s *Scheduler) IdleSkipped() uint64 { return s.ticksRun() - s.ticked }

// Ticked returns how many quanta Tick actually ran. It stands still while
// an idle scheduler is advanced.
func (s *Scheduler) Ticked() uint64 { return s.ticked }

// Quantum returns the time slice in cycles.
func (s *Scheduler) Quantum() uint64 { return s.cfg.Quantum }

// queue mutation helpers: every insert/remove goes through these so the
// queued/surplus bookkeeping and gen can never drift from the queues.

func (s *Scheduler) pushBack(core numa.CoreID, t *Thread) {
	q := &s.queues[core]
	q.PushBack(t)
	s.queued++
	s.gen++
	if q.Len() == 2 {
		s.surplus++
	}
}

func (s *Scheduler) pushFront(core numa.CoreID, t *Thread) {
	q := &s.queues[core]
	q.PushFront(t)
	s.queued++
	s.gen++
	if q.Len() == 2 {
		s.surplus++
	}
}

// popFront takes the head of a non-empty queue.
func (s *Scheduler) popFront(core numa.CoreID) *Thread {
	q := &s.queues[core]
	t, _ := q.PopFront()
	s.queued--
	s.gen++
	if q.Len() == 1 {
		s.surplus--
	}
	return t
}

func (s *Scheduler) removeAt(core numa.CoreID, i int) *Thread {
	q := &s.queues[core]
	t := q.RemoveAt(i)
	s.queued--
	s.gen++
	if q.Len() == 1 {
		s.surplus--
	}
	return t
}

// NewCGroup creates an empty control group whose cpuset is initially the
// full machine.
func (s *Scheduler) NewCGroup(name string) *CGroup {
	if _, dup := s.groups[name]; dup {
		panic(fmt.Sprintf("sched: duplicate cgroup %q", name))
	}
	g := &CGroup{name: name, pids: make(map[int]bool), cpus: s.rootSet, sched: s}
	s.groups[name] = g
	return g
}

// proc returns pid's thread table, creating it on first use.
func (s *Scheduler) proc(pid int) *procTable {
	p := s.procs[pid]
	if p == nil {
		p = &procTable{}
		s.procs[pid] = p
	}
	return p
}

// allowedSet computes where a thread may run: its cgroup cpuset intersected
// with any hard pin. An empty intersection falls back to the pin (the
// kernel refuses to starve a pinned thread).
func (s *Scheduler) allowedSet(t *Thread) CPUSet {
	set := s.rootSet
	if g := t.proc.group; g != nil {
		set = g.cpus
	}
	if !t.pinned.IsEmpty() {
		if inter := set.Intersect(t.pinned); !inter.IsEmpty() {
			return inter
		}
		return t.pinned
	}
	return set
}

// SpawnOption configures thread creation.
type SpawnOption func(*Thread)

// Pinned gives the thread a hard affinity mask
// (pthread_setaffinity_np-style).
func Pinned(set CPUSet) SpawnOption {
	return func(t *Thread) { t.pinned = set }
}

// Gate tells the scheduler whether the threads spawned behind it (Gated)
// have anything to do. Its owner keeps it open whenever a Run of such a
// thread, woken from Blocked with nothing in hand, could find work; while
// it is shut, that Run must return (0, true, false) and change nothing.
// runCore then parks the woken thread again without calling Run: the same
// spurious wake-up, counted the same, at the cost of a flag read.
type Gate struct {
	open    bool
	reparks uint64
}

// Set opens (true) or shuts (false) the gate.
func (g *Gate) Set(open bool) { g.open = open }

// Open reports whether the gate is open.
func (g *Gate) Open() bool { return g.open }

// Reparks counts the woken threads behind the gate that runCore parked
// again without running them.
func (g *Gate) Reparks() uint64 { return g.reparks }

// Gated puts the thread behind a gate its spawner keeps.
func Gated(g *Gate) SpawnOption {
	return func(t *Thread) { t.gate = g }
}

// NearNode hints the initial placement toward the given node, modelling
// fork-local placement: a child thread starts in its parent's scheduling
// domain, and only the load balancer later spreads it (stealing). It is a
// hint, not an affinity — ignored when the node has no allowed core.
func NearNode(n numa.NodeID) SpawnOption {
	return func(t *Thread) { t.spawnHint = n }
}

// Spawn creates a thread owned by pid running the given work and places it
// following the kernel's spreading policy: the least-loaded allowed core,
// preferring nodes with the least total load, so new threads land far
// apart (Section II-A: "the OS scheduler attempts to leave them on remote
// nodes balancing thus the CPU load"). A Recycler runner's exited record
// is reinitialised in place of a new one.
func (s *Scheduler) Spawn(pid int, name string, r Runner, opts ...SpawnOption) *Thread {
	var t *Thread
	if rc, ok := r.(Recycler); ok {
		if t = rc.Recycled(); t != nil && t.state != Done {
			panic(fmt.Sprintf("sched: respawning live thread %d", t.ID))
		}
	}
	if t == nil {
		t = new(Thread)
	}
	*t = Thread{
		ID:        s.nextTID,
		PID:       pid,
		Name:      name,
		runner:    r,
		state:     Runnable,
		spawned:   s.machine.Now(),
		spawnHint: numa.NoNode,
	}
	s.nextTID++
	for _, opt := range opts {
		opt(t)
	}
	s.proc(pid).add(t)
	t.core = s.placementCore(t)
	s.pushBack(t.core, t)
	s.threads[t.ID] = t
	s.stats.Spawned++
	return t
}

// placementCore picks the spawn/wake core for a thread. It runs on every
// spawn and wake-up, so core sets are walked as masks, never as slices.
func (s *Scheduler) placementCore(t *Thread) numa.CoreID {
	allowed := s.allowedSet(t)
	if t.spawnHint != numa.NoNode {
		// Fork-local placement: least-loaded allowed core on the hinted
		// node; spreading is the balancer's job, not placement's.
		if onNode := allowed.OnNode(s.topo, t.spawnHint); !onNode.IsEmpty() {
			return s.shortestQueue(onNode)
		}
	}
	// Node with the least queued threads among allowed cores first.
	bestNode, bestNodeLoad := CPUSet(0), 1<<30
	for n := 0; n < s.topo.NodeCount; n++ {
		onNode := allowed.OnNode(s.topo, numa.NodeID(n))
		if onNode.IsEmpty() {
			continue
		}
		load := 0
		for v := uint64(onNode); v != 0; v &= v - 1 {
			load += s.queues[bits.TrailingZeros64(v)].Len()
		}
		// Normalize by core count so a node with more allowed cores is
		// not penalized for its capacity.
		norm := load * 16 / onNode.Count()
		if norm < bestNodeLoad {
			bestNodeLoad, bestNode = norm, onNode
		}
	}
	return s.shortestQueue(bestNode)
}

// shortestQueue returns the core of the set with the fewest queued threads,
// the lowest id among equals, or -1 for the empty set.
func (s *Scheduler) shortestQueue(set CPUSet) numa.CoreID {
	best, bestLen := numa.CoreID(-1), 1<<30
	for v := uint64(set); v != 0; v &= v - 1 {
		c := bits.TrailingZeros64(v)
		if l := s.queues[c].Len(); l < bestLen {
			best, bestLen = numa.CoreID(c), l
		}
	}
	return best
}

// blockThread marks a thread that just entered the Blocked state.
func (s *Scheduler) blockThread(t *Thread) {
	p := t.proc
	p.blocked[t.slot>>6] |= 1 << (t.slot & 63)
	p.nblocked++
}

// unblockThread clears a thread's blocked mark. An already clear mark is
// tolerated: a WakeAll drain clears the marks before waking their threads.
func (s *Scheduler) unblockThread(t *Thread) {
	p := t.proc
	if bit := uint64(1) << (t.slot & 63); p.blocked[t.slot>>6]&bit != 0 {
		p.blocked[t.slot>>6] &^= bit
		p.nblocked--
	}
}

// Wake moves a Blocked thread back onto a run queue. The kernel prefers
// the thread's previous core whenever it is still allowed (the
// wake-affinity heuristic: wake-ups chase cache residency, and the
// periodic balancer repairs the resulting imbalance by stealing).
func (s *Scheduler) Wake(t *Thread) {
	if t.state != Blocked {
		return
	}
	s.unblockThread(t)
	s.stats.Wakeups++
	t.woken = true
	allowed := s.allowedSet(t)
	target := t.core
	if !allowed.Contains(target) {
		target = s.placementCore(t)
	}
	t.state = Runnable
	// Wakeup preemption: a thread that slept goes to the head of the
	// queue (CFS credits sleepers with low vruntime), so short-running
	// coordinator threads are not starved behind CPU-bound workers.
	s.pushFront(target, t)
	// Published once the thread is queued: a subscriber that writes the
	// cpuset from the event re-places it like any queued thread.
	if target != t.core {
		s.recordMigration(t, target)
	}
}

// WakeAll wakes every Blocked thread owned by pid (a task queue became
// non-empty), in ascending TID order.
func (s *Scheduler) WakeAll(pid int) {
	p := s.procs[pid]
	if p == nil || p.nblocked == 0 {
		return
	}
	// Copy the marks' words and clear them before the first wake-up:
	// anything re-entering Wake from a subscriber then sees an empty set
	// instead of mutating the words we iterate, and Wake skips a thread
	// already woken. Slots stay put meanwhile, since only an exit in
	// runCore compacts the table.
	words := append(p.scratch[:0], p.blocked...)
	clear(p.blocked)
	p.nblocked = 0
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			s.Wake(p.slots[w<<6+bits.TrailingZeros64(word)])
		}
	}
	p.scratch = words
}

// recordMigration moves a thread's core, updates counters and publishes
// the event; the thread's core is already the new one when a subscriber
// sees it.
func (s *Scheduler) recordMigration(t *Thread, to numa.CoreID) {
	from := t.core
	t.core = to
	s.stats.Migrations++
	if s.topo.NodeOf(from) != s.topo.NodeOf(to) {
		s.stats.CrossNodeMigrations++
	}
	if s.bus != nil {
		s.bus.Publish(obs.Event{
			Kind: obs.KindMigration,
			Now:  s.machine.Now(),
			TID:  int64(t.ID),
			Core: int32(to),
			From: int32(from),
		})
	}
}

// reconcileGroup re-places every queued thread of the group whose core left
// the cpuset (the cgroup cpuset write path).
func (s *Scheduler) reconcileGroup(g *CGroup) {
	s.gen++ // allowed sets changed in place: idleSteal's cache is stale
	var displaced []*Thread
	for core := range s.queues {
		displaced = displaced[:0]
		for i := 0; i < s.queues[core].Len(); {
			t := s.queues[core].At(i)
			if t.proc.group == g && !s.allowedSet(t).Contains(numa.CoreID(core)) {
				s.removeAt(numa.CoreID(core), i)
				displaced = append(displaced, t)
				continue
			}
			i++
		}
		for _, t := range displaced {
			target := s.placementCore(t)
			s.recordMigration(t, target)
			s.pushBack(target, t)
		}
	}
}

// Tick advances the simulation by one quantum: every core with work runs
// the head of its queue (work-conserving within the quantum across its own
// queue), the machine's virtual clock moves forward, and periodically the
// load balancer evens out queue lengths by stealing threads.
//
// The loop is event-driven: cores whose queue is empty while no queue
// anywhere holds a steal candidate are passed over instead of walking the
// steal scan.
func (s *Scheduler) Tick() {
	s.ticked++
	start := s.machine.Now()
	// Advance the clock first: anything that completes inside this
	// quantum is stamped at the quantum's end, never before its start.
	s.machine.AdvanceTime(s.cfg.Quantum)
	for core := 0; core < s.topo.TotalCores(); core++ {
		c := numa.CoreID(core)
		// An idle core can only acquire work this quantum by stealing,
		// and stealing needs some queue with >= 2 threads. Without one,
		// the whole quantum is idle — exactly what runCore would
		// conclude after scanning.
		if s.queues[c].Len() == 0 && s.surplus == 0 {
			continue
		}
		s.runCore(c, start)
	}
	if s.ticksRun()%balancePeriod == 0 {
		s.balance()
	}
}

// sliceCtx prepares the core's reusable ExecContext for one run slice.
func (s *Scheduler) sliceCtx(core numa.CoreID, t *Thread) *ExecContext {
	ctx := &s.execCtx[core]
	ctx.Machine, ctx.Core, ctx.PID, ctx.TID = s.machine, core, t.PID, t.ID
	return ctx
}

// runCore executes up to one quantum of work on a core, rotating through
// its queue if threads block or finish early.
//
// A per-core slowdown factor (SetCoreSlowdown) divides the budget handed
// to the runner and multiplies the wall cycles charged back: the runner
// retires used work-cycles while the clock sees used*factor.
func (s *Scheduler) runCore(core numa.CoreID, start uint64) {
	if s.queues[core].Len() == 0 {
		// Idle balancing: an idling CPU immediately tries to pull work
		// from the busiest queue (Linux idle_balance), trading cache
		// affinity for utilization — the stolen tasks of Fig 13 (d).
		s.idleSteal(core)
	}
	factor := uint64(1)
	if s.slow != nil {
		factor = s.slow[core]
	}
	budget := s.cfg.Quantum
	guard := s.queues[core].Len() + 1 // at most one attempt per queued thread
	for budget > 0 && guard > 0 {
		guard--
		if s.queues[core].Len() == 0 {
			break
		}
		avail := budget
		if factor > 1 {
			// A frozen (or too-slow-to-progress) core keeps its queue
			// intact and idles the rest of the quantum away.
			if avail = budget / factor; avail == 0 {
				break
			}
		}
		t := s.popFront(core)
		if t.state == Done {
			continue
		}
		if t.woken && t.gate != nil && !t.gate.open {
			// Behind a shut gate a woken thread's Run would find nothing
			// and park at no cost: park it without the call.
			t.woken = false
			t.gate.reparks++
			s.stats.SpuriousWakeups++
			t.state = Blocked
			s.blockThread(t)
			continue
		}
		t.state = Running
		woken := t.woken
		t.woken = false
		ctx := s.sliceCtx(core, t)
		used, blocked, done := t.runner.Run(ctx, avail)
		if used > avail {
			used = avail
		}
		wall := used * factor // factor <= budget here, so no overflow
		if used > 0 {
			s.machine.ChargeBusy(core, wall)
			if s.bus != nil {
				sliceStart := start + (s.cfg.Quantum - budget)
				s.bus.Publish(obs.Event{
					Kind:  obs.KindRunSlice,
					Now:   sliceStart + wall,
					TID:   int64(t.ID),
					Core:  int32(core),
					Start: sliceStart,
					Dur:   wall,
					Label: t.Name,
				})
			}
		}
		budget -= wall
		switch {
		case done:
			t.state = Done
			t.exited = s.machine.Now() + (s.cfg.Quantum - budget)
			delete(s.threads, t.ID)
			t.proc.remove(t)
		case blocked:
			if woken && used == 0 {
				s.stats.SpuriousWakeups++
			}
			t.state = Blocked
			s.blockThread(t)
		default:
			t.state = Runnable
			s.pushBack(core, t)
			if used == 0 {
				// A runnable thread that made no progress would spin the
				// core loop forever; the core idles the rest of the
				// quantum.
				budget = 0
			}
		}
	}
}

// idleSteal pulls one thread allowed on the idle core from the busiest
// queue with at least two runnable threads. A fruitless scan is cached
// until gen moves, so the other idle cores of a quantum whose queues did
// not change read the answer instead of rescanning.
func (s *Scheduler) idleSteal(core numa.CoreID) {
	busiest := s.stealFrom
	if s.stealGen == s.gen {
		if !s.stealSet.Contains(core) {
			return
		}
	} else {
		busiest = -1
		busiestLen := 1
		for c := range s.queues {
			if l := s.queues[c].Len(); l > busiestLen {
				busiest, busiestLen = numa.CoreID(c), l
			}
		}
	}
	var union CPUSet
	for i := 0; busiest >= 0 && i < s.queues[busiest].Len(); i++ {
		t := s.queues[busiest].At(i)
		allowed := s.allowedSet(t)
		if !allowed.Contains(core) {
			union = union.Union(allowed)
			continue
		}
		s.removeAt(busiest, i)
		s.stats.StolenTasks++
		if s.topo.NodeOf(busiest) != s.topo.NodeOf(core) {
			s.machine.DropCoreAffinity(core)
		}
		s.recordMigration(t, core)
		s.pushBack(core, t)
		return
	}
	s.stealGen, s.stealFrom, s.stealSet = s.gen, busiest, union
}

// balance is the periodic load balancer: it repeatedly moves one thread
// from the busiest queue to the idlest allowed queue while the imbalance
// exceeds the threshold. Every move is a stolen task; moves across nodes
// lose cache affinity (the machine drops the thread's private cache).
func (s *Scheduler) balance() {
	for moved := 0; moved < s.topo.TotalCores(); moved++ {
		busiest, idlest := numa.CoreID(-1), numa.CoreID(-1)
		busiestLen, idlestLen := -1, 1<<30
		for core := range s.queues {
			l := s.queues[core].Len()
			if l > busiestLen {
				busiestLen, busiest = l, numa.CoreID(core)
			}
		}
		if busiestLen < balanceThreshold {
			return
		}
		// Find a thread on the busiest queue and the best core it may move
		// to.
		var steal *Thread
		stealIdx := -1
		for i := 0; i < s.queues[busiest].Len(); i++ {
			t := s.queues[busiest].At(i)
			allowed := s.allowedSet(t)
			for core := range s.queues {
				c := numa.CoreID(core)
				if c == busiest || !allowed.Contains(c) {
					continue
				}
				if l := s.queues[core].Len(); l < idlestLen {
					idlestLen, idlest = l, c
					steal, stealIdx = t, i
				}
			}
			if steal != nil {
				break
			}
		}
		if steal == nil || busiestLen-idlestLen < balanceThreshold {
			return
		}
		s.removeAt(busiest, stealIdx)
		s.stats.StolenTasks++
		if s.topo.NodeOf(busiest) != s.topo.NodeOf(idlest) {
			s.machine.DropCoreAffinity(idlest)
		}
		s.recordMigration(steal, idlest)
		s.pushBack(idlest, steal)
	}
}

// Idle reports whether no thread is runnable on any core. An idle
// scheduler stays idle until something outside it calls Spawn or Wake:
// no runner executes, so no thread can wake, spawn or finish.
func (s *Scheduler) Idle() bool { return s.queued == 0 }

// Advance runs n quanta. As soon as the scheduler is Idle the remaining
// quanta can change nothing but the clock, so they are skipped in one bulk
// step that replicates the congestion-window cadence exactly: the idle
// cycles, the quanta run and the balance parity are all read off the
// clock, and an empty queue is never balanced. It is the one idle
// fast-forward: RunUntil and the fleet engine both advance through it.
func (s *Scheduler) Advance(n int) {
	for ; n > 0 && s.queued > 0; n-- {
		s.Tick()
	}
	if n > 0 {
		s.machine.AdvanceTimeIdle(s.cfg.Quantum, uint64(n))
	}
}

// RunUntil ticks the scheduler until the predicate returns true or the
// cycle limit is reached, returning whether the predicate was satisfied.
//
// An idle stretch is fast-forwarded to the limit in one Advance, so the
// predicate must be a pure observation of simulation state: no side
// effects (driving a control loop inside a predicate would be skipped
// with the stretch — drive a rig through workload.Rig.Tick instead)
// and no direct dependence on virtual time. Every in-tree predicate
// satisfies this.
func (s *Scheduler) RunUntil(pred func() bool, maxCycles uint64) bool {
	deadline := s.machine.Now() + maxCycles
	for !pred() {
		now := s.machine.Now()
		if now >= deadline {
			return false
		}
		n := 1
		if s.queued == 0 {
			remaining := deadline - now
			n = int(remaining / s.cfg.Quantum)
			if remaining%s.cfg.Quantum != 0 {
				n++
			}
		}
		s.Advance(n)
	}
	return true
}
