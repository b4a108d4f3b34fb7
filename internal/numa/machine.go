package numa

import (
	"fmt"
	"sync/atomic"
)

// simCycles accumulates virtual cycles advanced by every Machine in the
// process. The bench harness reads it to report simulated-cycles/second
// without threading a handle through every experiment.
var simCycles atomic.Uint64

// SimulatedCycles returns the total virtual cycles advanced by all
// machines since process start (monotonic; read deltas around a workload).
func SimulatedCycles() uint64 { return simCycles.Load() }

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

// Access describes one memory operation issued by executing code: Bytes
// bytes read or written within a single placement block.
type Access struct {
	Block BlockID
	Bytes int
	Write bool
	// PID attributes first-touch residency (for the adaptive priority
	// queue); zero means anonymous.
	PID int
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
	mem    *Memory
	caches *cacheHierarchy
	cost   CostModel

	now   uint64 // virtual time, cycles
	nodes []NodeCounters
	cores []CoreCounters

	// Congestion model: interconnect and per-node memory demand within the
	// current accounting window stretch subsequent access costs. factor >= 1.
	window struct {
		htBytes  uint64
		imcBytes []uint64
		cycles   uint64
	}
	htFactor  float64
	imcFactor []float64

	memo costMemo
}

// costMemo caches the cycle cost of a full-block DRAM access per home node
// within one AccessRange call. The congestion factors are constant between
// AdvanceTime calls — and no time passes inside a range charge — so
// reusing the computed value is exact; the memo is reset at every
// AccessRange entry.
type costMemo struct {
	lines  uint64
	local  []uint64 // per home node; ^uint64(0) = unset
	remote []uint64
}

func (mm *costMemo) reset(lines uint64, nodes int) {
	if len(mm.local) != nodes {
		mm.local = make([]uint64, nodes)
		mm.remote = make([]uint64, nodes)
	}
	mm.lines = lines
	for i := range mm.local {
		mm.local[i] = ^uint64(0)
		mm.remote[i] = ^uint64(0)
	}
}

// NewMachine builds a machine for the topology with the default cost model.
// It panics if the topology is invalid, since every other subsystem depends
// on it.
func NewMachine(t *Topology) *Machine {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		topo:      t,
		mem:       NewMemory(t),
		caches:    newCacheHierarchy(t),
		cost:      DefaultCostModel(),
		nodes:     make([]NodeCounters, t.NodeCount),
		cores:     make([]CoreCounters, t.TotalCores()),
		htFactor:  1,
		imcFactor: make([]float64, t.NodeCount),
	}
	m.window.imcBytes = make([]uint64, t.NodeCount)
	for i := range m.imcFactor {
		m.imcFactor[i] = 1
	}
	return m
}

// SetCostModel overrides the access cost model (for ablation benches).
func (m *Machine) SetCostModel(c CostModel) { m.cost = c }

// Topology returns the machine's static shape.
func (m *Machine) Topology() *Topology { return m.topo }

// Memory exposes the placement layer (allocation is done through it).
func (m *Machine) Memory() *Memory { return m.mem }

// Now returns the current virtual time in cycles.
func (m *Machine) Now() uint64 { return m.now }

// NowSeconds returns the current virtual time in seconds.
func (m *Machine) NowSeconds() float64 { return m.topo.CyclesToSeconds(m.now) }

// Access charges one memory operation executed on the given core and
// returns its cost. It updates the placement table (first touch), the cache
// hierarchy, and every affected counter.
func (m *Machine) Access(core CoreID, a Access) Cost {
	if a.Bytes <= 0 {
		return Cost{}
	}
	if a.Bytes > m.topo.BlockBytes {
		panic(fmt.Sprintf("numa: access of %d bytes exceeds block size %d", a.Bytes, m.topo.BlockBytes))
	}
	return m.accessBlock(core, m.topo.NodeOf(core), a.Block, a.Bytes, a.Write, a.PID, nil)
}

// accessBlock is the shared charging body behind Access and AccessRange.
// memo, when non-nil, caches the DRAM cost for full-block accesses; the
// arithmetic is identical with or without it.
func (m *Machine) accessBlock(core CoreID, node NodeID, block BlockID, byteCount int, write bool, pid int, memo *costMemo) Cost {
	lines := uint64((byteCount + m.topo.CacheLineBytes - 1) / m.topo.CacheLineBytes)

	tr := m.mem.touch(block, node, pid)
	m.nodes[tr.home].DataTouches++
	level := m.caches.access(core, block)

	var c Cost
	switch level {
	case levelPrivate:
		m.nodes[node].L3Hits += lines
		c.Cycles = lines * m.cost.PrivateHit
	case levelL3:
		m.nodes[node].L3Hits += lines
		c.Cycles = lines * m.cost.L3Hit
	case levelMemory:
		m.nodes[node].L3Misses += lines
		bytes := lines * uint64(m.topo.CacheLineBytes)
		home := tr.home
		m.nodes[home].IMCBytes += bytes
		m.window.imcBytes[home] += bytes
		if home == node {
			if memo != nil && lines == memo.lines {
				if memo.local[home] == ^uint64(0) {
					memo.local[home] = uint64(float64(lines*m.cost.LocalMemory) * m.imcFactor[home])
				}
				c.Cycles = memo.local[home]
			} else {
				c.Cycles = uint64(float64(lines*m.cost.LocalMemory) * m.imcFactor[home])
			}
		} else {
			if memo != nil && lines == memo.lines {
				if memo.remote[home] == ^uint64(0) {
					memo.remote[home] = m.remoteCycles(node, home, lines)
				}
				c.Cycles = memo.remote[home]
			} else {
				c.Cycles = m.remoteCycles(node, home, lines)
			}
			m.nodes[node].HTBytesOut += bytes
			m.nodes[home].HTBytesIn += bytes
			m.window.htBytes += bytes
			c.HTBytes = bytes
		}
	}

	if write {
		inv := m.caches.invalidateRemote(core, block)
		if inv > 0 {
			m.nodes[node].Invalidations += uint64(inv)
			c.Cycles += uint64(inv) * m.cost.Invalidation * lines
			// Invalidation messages traverse the interconnect.
			invBytes := uint64(inv) * uint64(m.topo.CacheLineBytes)
			m.nodes[node].HTBytesOut += invBytes
			m.window.htBytes += invBytes
			c.HTBytes += invBytes
		}
	}
	return c
}

// remoteCycles computes the stretched cost of a remote DRAM access. A
// remote access crosses the interconnect AND the home node's memory
// controller; the slower pipe bounds it.
func (m *Machine) remoteCycles(node, home NodeID, lines uint64) uint64 {
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

// AccessRange charges a contiguous run of blocks in one call, equivalent
// to issuing Access block by block but with the per-call overhead hoisted
// and the DRAM cost arithmetic memoized per home node. Scans, gathers and
// materializations — anything walking consecutive rows — charge through
// here. The result is bit-identical to the per-block loop: same counters,
// same cycles, same cache-state evolution.
func (m *Machine) AccessRange(core CoreID, r RangeAccess) Cost {
	if r.Blocks <= 0 {
		return Cost{}
	}
	if r.FirstBytes > m.topo.BlockBytes || r.LastBytes > m.topo.BlockBytes {
		panic(fmt.Sprintf("numa: range access of %d/%d bytes exceeds block size %d",
			r.FirstBytes, r.LastBytes, m.topo.BlockBytes))
	}
	var total Cost
	node := m.topo.NodeOf(core)
	fullLines := uint64((m.topo.BlockBytes + m.topo.CacheLineBytes - 1) / m.topo.CacheLineBytes)
	m.memo.reset(fullLines, m.topo.NodeCount)
	for i := 0; i < r.Blocks; i++ {
		byteCount := r.bytesOf(i, m.topo.BlockBytes)
		if byteCount <= 0 {
			continue
		}
		c := m.accessBlock(core, node, r.Start+BlockID(i), byteCount, r.Write, r.PID, &m.memo)
		total.Cycles += c.Cycles
		total.HTBytes += c.HTBytes
	}
	return total
}

// ChargeBusy accounts cycles of useful execution on a core and advances
// nothing else; the scheduler calls it once per quantum slice.
func (m *Machine) ChargeBusy(core CoreID, cycles uint64) {
	m.cores[core].BusyCycles += cycles
}

// ChargeIdle accounts idle cycles on a core.
func (m *Machine) ChargeIdle(core CoreID, cycles uint64) {
	m.cores[core].IdleCycles += cycles
}

// AdvanceTime moves virtual time forward by the given cycles and refreshes
// the congestion factors from the demand observed in the elapsed window:
// when interconnect demand exceeds HT capacity, or a node's DRAM demand
// exceeds its IMC bandwidth, subsequent accesses are stretched
// proportionally. This is the causal chain of the paper's Figure 4: more
// concurrent clients -> more interconnect traffic -> lower throughput.
func (m *Machine) AdvanceTime(cycles uint64) {
	m.now += cycles
	simCycles.Add(cycles)
	m.window.cycles += cycles
	// Refresh factors roughly every millisecond of virtual time.
	windowCycles := m.topo.SecondsToCycles(1e-3)
	if m.window.cycles < windowCycles {
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
		windowCycles := m.topo.SecondsToCycles(1e-3)
		m.now += n * quantum
		simCycles.Add(n * quantum)
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

// L3Resident reports whether a block is resident in a node's L3 (testing
// and diagnostics).
func (m *Machine) L3Resident(n NodeID, b BlockID) bool {
	return m.caches.l3Resident(n, b)
}

// Snapshot returns a copy of all counters at the current virtual time.
func (m *Machine) Snapshot() Counters {
	c := Counters{
		Nodes: make([]NodeCounters, len(m.nodes)),
		Cores: make([]CoreCounters, len(m.cores)),
	}
	m.readCounters(&c)
	return c
}

// readCounters copies the cumulative counters into c, whose slices are
// already sized to the machine.
func (m *Machine) readCounters(c *Counters) {
	c.Now = m.now
	copy(c.Nodes, m.nodes)
	copy(c.Cores, m.cores)
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
// must be copied (Clone) to be kept longer.
func (w *CounterWindow) Advance() Counters {
	w.m.readCounters(&w.delta)
	w.last.setDelta(w.delta, w.last)
	w.last, w.delta = w.delta, w.last
	return w.delta
}

// Residency exposes the per-node live-block counts for a set of PIDs (the
// adaptive priority queue's input).
func (m *Machine) Residency(pids []int) []int { return m.mem.Residency(pids) }
