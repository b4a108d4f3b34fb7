package numa

import "fmt"

// CostModel holds the per-event cycle costs used to charge memory accesses.
// The defaults approximate the relative latencies of the Opteron 8387
// memory hierarchy; the mechanism's behaviour depends on the *ratios*
// (remote vs local, miss vs hit), not the absolute values.
type CostModel struct {
	// Per cache line (CacheLineBytes), in cycles.
	PrivateHit   uint64 // L1/L2 hit
	L3Hit        uint64 // shared-cache hit
	LocalMemory  uint64 // L3 miss served by the local IMC
	RemoteMemory uint64 // L3 miss served by a remote IMC, first hop
	PerHop       uint64 // additional cycles per extra interconnect hop
	Invalidation uint64 // per invalidated remote copy, charged to the writer
}

// DefaultCostModel returns latencies in line with published Opteron
// measurements: L3 ~ 40 cycles, local DRAM ~ 200 cycles, remote DRAM
// 1.9-2.6x local depending on hop count (HyperTransport 3.x probe +
// transfer), coherence invalidations ~ an L2-miss round trip.
func DefaultCostModel() CostModel {
	return CostModel{
		PrivateHit:   4,
		L3Hit:        40,
		LocalMemory:  200,
		RemoteMemory: 440,
		PerHop:       140,
		Invalidation: 80,
	}
}

// Cost is the outcome of charging an access.
type Cost struct {
	Cycles  uint64
	HTBytes uint64 // interconnect bytes generated
}

// Machine is the complete NUMA hardware model: topology, memory with
// first-touch placement, cache hierarchy, interconnect traffic accounting
// with bandwidth-driven congestion, and the counter surface.
type Machine struct {
	topo   *Topology
	tb     Timebase
	mem    *Memory
	caches *cacheHierarchy
	cost   CostModel

	now   uint64 // virtual time, cycles
	nodes []NodeCounters
	busy  []uint64 // by CoreID; a core's idle cycles are now - busy

	// Congestion model: interconnect and per-node memory demand within the
	// current accounting window stretch subsequent access costs. factor >= 1.
	window struct {
		htBytes  uint64
		imcBytes []uint64
		cycles   uint64
	}
	htFactor  float64
	imcFactor []float64

	nodeOf []NodeID // by CoreID

	// memo caches, within one AccessRange call, the cycle cost of a
	// full-block DRAM access per home node: an entry is valid while its
	// stamp is the call's, so a call starts with a new stamp and clears
	// nothing. The congestion factors are constant between AdvanceTime
	// calls — and no time passes inside a range charge — so reusing the
	// value is exact.
	memo  []dramMemo
	stamp uint64
}

type dramMemo struct{ stamp, cycles uint64 }

// NewMachine builds a machine for the topology with the default cost model.
// It panics if the topology is invalid, since every other subsystem depends
// on it.
func NewMachine(t *Topology) *Machine {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	mem := NewMemory(t)
	m := &Machine{
		topo:      t,
		tb:        newTimebase(t),
		mem:       mem,
		caches:    newCacheHierarchy(t, mem),
		cost:      DefaultCostModel(),
		nodes:     make([]NodeCounters, t.NodeCount),
		busy:      make([]uint64, t.TotalCores()),
		htFactor:  1,
		imcFactor: make([]float64, t.NodeCount),
		nodeOf:    make([]NodeID, t.TotalCores()),
		memo:      make([]dramMemo, t.NodeCount),
	}
	m.window.imcBytes = make([]uint64, t.NodeCount)
	for i := range m.imcFactor {
		m.imcFactor[i] = 1
	}
	for c := range m.nodeOf {
		m.nodeOf[c] = t.NodeOf(CoreID(c))
	}
	return m
}

// Topology returns the machine's static shape.
func (m *Machine) Topology() *Topology { return m.topo }

// Timebase returns the simulated durations at the machine's clock.
func (m *Machine) Timebase() Timebase { return m.tb }

// Memory exposes the placement layer (allocation is done through it).
func (m *Machine) Memory() *Memory { return m.mem }

// Now returns the current virtual time in cycles.
func (m *Machine) Now() uint64 { return m.now }

// NowSeconds returns the current virtual time in seconds.
func (m *Machine) NowSeconds() float64 { return m.topo.CyclesToSeconds(m.now) }

// dramCycles computes the stretched cost of serving lines from home's DRAM
// to a core of node. A remote access crosses the interconnect AND the home
// node's memory controller; the slower pipe bounds it.
func (m *Machine) dramCycles(node, home NodeID, lines uint64) uint64 {
	if home == node {
		return uint64(float64(lines*m.cost.LocalMemory) * m.imcFactor[home])
	}
	hops := m.topo.Hops(node, home)
	per := m.cost.RemoteMemory + uint64(hops-1)*m.cost.PerHop
	stretch := m.htFactor
	if m.imcFactor[home] > stretch {
		stretch = m.imcFactor[home]
	}
	return uint64(float64(lines*per) * stretch)
}

// RangeAccess describes one bulk memory operation: a sweep over a
// contiguous run of placement blocks, read or written in address order.
// The first and last blocks may be covered partially; FirstBytes and
// LastBytes of zero mean the full block, and LastBytes is ignored when the
// range is a single block.
type RangeAccess struct {
	Start      BlockID
	Blocks     int
	FirstBytes int
	LastBytes  int
	Write      bool
	// PID attributes first-touch residency; zero means anonymous.
	PID int
}

// bytesOf returns the covered byte count of the i-th block of the range.
func (r RangeAccess) bytesOf(i, blockBytes int) int {
	switch {
	case i == 0 && r.FirstBytes != 0:
		return r.FirstBytes
	case i == r.Blocks-1 && i != 0 && r.LastBytes != 0:
		return r.LastBytes
	default:
		return blockBytes
	}
}

// AccessRange charges a contiguous run of blocks in one call: each block is
// first-touched, walked through the core's private cache and its node's L3,
// and charged by the level that served it; a written block is invalidated
// in every other cache that holds it. Scans, gathers and materializations
// — anything walking consecutive rows — charge through here. What does not
// change from block to block is read once: the two caches, and the DRAM
// cost of a full block per home node (memo). A block's state and its
// directory row are read once each. The counters the accessing node owns
// are summed in locals and stored once — integer sums, so the result is
// that of charging block by block; the home node's (DataTouches, IMCBytes,
// HTBytesIn) may change from block to block and are added in place.
func (m *Machine) AccessRange(core CoreID, r RangeAccess) Cost {
	if r.Blocks <= 0 {
		return Cost{}
	}
	topo := m.topo
	if r.FirstBytes > topo.BlockBytes || r.LastBytes > topo.BlockBytes {
		panic(fmt.Sprintf("numa: range access of %d/%d bytes exceeds block size %d",
			r.FirstBytes, r.LastBytes, topo.BlockBytes))
	}
	node := m.nodeOf[core]
	bit := uint32(1) << uint(node)
	lineBytes := topo.CacheLineBytes
	fullLines := uint64((topo.BlockBytes + lineBytes - 1) / lineBytes)
	m.stamp++
	h := m.caches
	private, l3 := h.private[core], h.shared[node]

	var total Cost
	var hits, misses, invalidations uint64
	for i := 0; i < r.Blocks; i++ {
		lines := fullLines
		if byteCount := r.bytesOf(i, topo.BlockBytes); byteCount != topo.BlockBytes {
			if byteCount <= 0 {
				continue
			}
			lines = uint64((byteCount + lineBytes - 1) / lineBytes)
		}
		block := r.Start + BlockID(i)
		info := m.mem.block(block)
		if info.mapped&bit == 0 {
			m.mem.mapFrom(info, node, r.PID)
		}
		home := info.homeOf()
		hc := &m.nodes[home]
		hc.DataTouches++

		var cycles uint64
		switch h.walk(private, l3, block, info) {
		case levelPrivate:
			hits += lines
			cycles = lines * m.cost.PrivateHit
		case levelL3:
			hits += lines
			cycles = lines * m.cost.L3Hit
		case levelMemory:
			misses += lines
			bytes := lines * uint64(lineBytes)
			hc.IMCBytes += bytes
			m.window.imcBytes[home] += bytes
			if memo := &m.memo[home]; memo.stamp == m.stamp && lines == fullLines {
				cycles = memo.cycles
			} else {
				cycles = m.dramCycles(node, home, lines)
				if lines == fullLines {
					*memo = dramMemo{m.stamp, cycles}
				}
			}
			if home != node {
				hc.HTBytesIn += bytes
				total.HTBytes += bytes
			}
		}

		if r.Write {
			if inv := uint64(h.invalidateRemote(core, block)); inv > 0 {
				invalidations += inv
				cycles += inv * m.cost.Invalidation * lines
				// Invalidation messages traverse the interconnect.
				total.HTBytes += inv * uint64(lineBytes)
			}
		}
		total.Cycles += cycles
	}
	nc := &m.nodes[node]
	nc.L3Hits += hits
	nc.L3Misses += misses
	nc.HTBytesOut += total.HTBytes
	nc.Invalidations += invalidations
	m.window.htBytes += total.HTBytes
	return total
}

// ChargeBusy accounts cycles of useful execution on a core and advances
// nothing else; the scheduler calls it once per quantum slice, for cycles
// the clock has already passed. Idle cycles are never charged: a core is
// idle for every cycle of the clock it was not busy.
func (m *Machine) ChargeBusy(core CoreID, cycles uint64) {
	m.busy[core] += cycles
}

// AdvanceTime moves virtual time forward by the given cycles and refreshes
// the congestion factors from the demand observed in the elapsed window:
// when interconnect demand exceeds HT capacity, or a node's DRAM demand
// exceeds its IMC bandwidth, subsequent accesses are stretched
// proportionally. This is the causal chain of the paper's Figure 4: more
// concurrent clients -> more interconnect traffic -> lower throughput.
func (m *Machine) AdvanceTime(cycles uint64) {
	m.now += cycles
	m.window.cycles += cycles
	// Refresh factors once a window of virtual time has passed.
	if m.window.cycles < m.tb.Window {
		return
	}
	seconds := m.topo.CyclesToSeconds(m.window.cycles)
	htCapacity := m.topo.HTBandwidth * seconds
	m.htFactor = smoothFactor(m.htFactor, float64(m.window.htBytes)/htCapacity)
	for n := range m.imcFactor {
		cap := m.topo.MemBandwidth * seconds
		m.imcFactor[n] = smoothFactor(m.imcFactor[n], float64(m.window.imcBytes[n])/cap)
		m.window.imcBytes[n] = 0
	}
	m.window.htBytes = 0
	m.window.cycles = 0
}

// smoothFactor updates a stretch factor from the utilization measured
// *under the previous factor*. The measured window already reflects the
// old stretch, so the physical fixed point (delivered bytes == capacity)
// is reached by multiplying the old factor by the measured utilization;
// an EMA smooths the correction. Floored at 1 — an idle link adds no
// speedup.
func smoothFactor(prev, utilization float64) float64 {
	target := prev * utilization
	if target < 1 {
		target = 1
	}
	f := 0.5*prev + 0.5*target
	if f < 1 {
		f = 1
	}
	return f
}

// AdvanceTimeIdle advances virtual time by n quanta during which no
// memory traffic occurred, replicating exactly the state n sequential
// AdvanceTime(quantum) calls would produce: the congestion-window refresh
// cadence is preserved while the factors are still decaying, and once
// every factor has reached 1 (refreshes become state-invisible) the
// remaining quanta are applied in O(1). The scheduler's idle fast-forward
// is built on this.
func (m *Machine) AdvanceTimeIdle(quantum, n uint64) {
	if quantum == 0 {
		return
	}
	for n > 0 {
		if !m.idleSteady() {
			m.AdvanceTime(quantum)
			n--
			continue
		}
		// Steady state: every refresh is a no-op beyond zeroing an
		// already-zero window, so only the clock and the window phase
		// move. Jump.
		windowCycles := m.tb.Window
		m.now += n * quantum
		c := m.window.cycles // invariant: c < windowCycles
		untilRefresh := (windowCycles - c + quantum - 1) / quantum
		if n < untilRefresh {
			m.window.cycles = c + n*quantum
		} else {
			period := (windowCycles + quantum - 1) / quantum
			m.window.cycles = ((n - untilRefresh) % period) * quantum
		}
		return
	}
}

// idleSteady reports whether an idle AdvanceTime refresh would be a
// no-op: all congestion factors have decayed to exactly 1 and the current
// window carries no traffic.
func (m *Machine) idleSteady() bool {
	if m.htFactor != 1 || m.window.htBytes != 0 {
		return false
	}
	for i, f := range m.imcFactor {
		if f != 1 || m.window.imcBytes[i] != 0 {
			return false
		}
	}
	return true
}

// HTCongestion returns the current interconnect stretch factor (>= 1).
func (m *Machine) HTCongestion() float64 { return m.htFactor }

// DropCoreAffinity clears a core's private cache, modelling the working-set
// loss after a thread migration.
func (m *Machine) DropCoreAffinity(core CoreID) { m.caches.dropCore(core) }

// Snapshot returns a copy of all counters at the current virtual time.
func (m *Machine) Snapshot() Counters {
	c := Counters{
		Nodes: make([]NodeCounters, len(m.nodes)),
		Cores: make([]CoreCounters, len(m.busy)),
	}
	m.readCounters(&c, m.now)
	return c
}

// readCounters copies the cumulative counters into c, whose slices are
// already sized to the machine, as read at cycle now: each core's idle
// cycles are now less its busy cycles.
func (m *Machine) readCounters(c *Counters, now uint64) {
	c.Now = now
	copy(c.Nodes, m.nodes)
	for i, busy := range m.busy {
		c.Cores[i] = CoreCounters{BusyCycles: busy, IdleCycles: now - busy}
	}
	for i, faults := range m.mem.minorFaults {
		c.Nodes[i].MinorFaults = faults
	}
}

// CounterWindow reads the machine's counters as successive deltas without
// allocating: the per-control-period replacement for
// snap := Snapshot(); w := snap.Sub(last); last = snap. It owns two
// buffers, one holding the cumulative counters at the previous Advance and
// one holding the delta handed out, and swaps their roles on every call.
type CounterWindow struct {
	m           *Machine
	last, delta Counters
}

// NewCounterWindow returns a window whose first Advance reports the deltas
// since this call.
func (m *Machine) NewCounterWindow() *CounterWindow {
	return &CounterWindow{m: m, last: m.Snapshot(), delta: m.Snapshot()}
}

// Advance returns the counter deltas since the previous Advance (or since
// NewCounterWindow) and starts the next window. The returned Counters
// share the window's storage: they are valid until the next Advance and
// must be copied, Nodes and Cores included, to be kept longer.
func (w *CounterWindow) Advance() Counters {
	w.m.readCounters(&w.delta, w.m.now)
	w.last.setDelta(w.delta, w.last)
	w.last, w.delta = w.delta, w.last
	return w.delta
}

// Restart starts the next window at cycle at, in the past, as if Advance
// had been called then: the next Advance reports the deltas since at. It
// reads the counters as of at, so it is exact only when every core idled
// through (at, now] and no other counter moved — what an idle scheduler's
// skipped quanta leave behind. The window Advance last handed out stays
// valid.
func (w *CounterWindow) Restart(at uint64) {
	if at > w.m.now {
		panic(fmt.Sprintf("numa: counter window restarted at cycle %d, after now (%d)", at, w.m.now))
	}
	w.m.readCounters(&w.last, at)
}

// Residency exposes the per-node homed-block counts for a set of PIDs (the
// adaptive priority queue's input).
func (m *Machine) Residency(pids []int) []int { return m.mem.Residency(pids) }
