package numa

import (
	"container/list"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// directory_test.go is the oracle of the cache directory: a reference
// machine built from Go maps and container/list — what the hierarchy did
// when every cache hashed its blocks, one method per transition, no
// positions, no arenas, no memo — and one driver that replays a history on
// it and on a Machine and compares everything observable after every step.

// refCache is an LRU set of blocks: order front = most recently used.
type refCache struct {
	capacity int
	order    *list.List
	at       map[BlockID]*list.Element
}

func newRefCache(capacity int) *refCache {
	if capacity < 1 {
		capacity = 1
	}
	return &refCache{capacity: capacity, order: list.New(), at: map[BlockID]*list.Element{}}
}

func (c *refCache) touch(b BlockID) (hit bool) {
	if e, ok := c.at[b]; ok {
		c.order.MoveToFront(e)
		return true
	}
	c.at[b] = c.order.PushFront(b)
	if c.order.Len() > c.capacity {
		delete(c.at, c.order.Remove(c.order.Back()).(BlockID))
	}
	return false
}

func (c *refCache) invalidate(b BlockID) bool {
	e, ok := c.at[b]
	if ok {
		c.order.Remove(e)
		delete(c.at, b)
	}
	return ok
}

func (c *refCache) clear() {
	c.order.Init()
	c.at = map[BlockID]*list.Element{}
}

func (c *refCache) blocks() []BlockID {
	out := []BlockID{}
	for e := c.order.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(BlockID))
	}
	return out
}

// refBlock is the placement state of one block.
type refBlock struct {
	home   NodeID
	mapped map[NodeID]bool
}

// refMachine charges accesses block by block.
type refMachine struct {
	topo      *Topology
	cost      CostModel
	blocks    []*refBlock
	residency map[int][]int
	private   []*refCache
	shared    []*refCache
	now       uint64
	nodes     []NodeCounters
	htFactor  float64
	imcFactor []float64
	window    struct {
		htBytes, cycles uint64
		imcBytes        []uint64
	}
}

func newRefMachine(t *Topology) *refMachine {
	r := &refMachine{topo: t, cost: DefaultCostModel(), residency: map[int][]int{}, htFactor: 1}
	r.nodes = make([]NodeCounters, t.NodeCount)
	r.imcFactor = make([]float64, t.NodeCount)
	r.window.imcBytes = make([]uint64, t.NodeCount)
	for n := 0; n < t.NodeCount; n++ {
		r.imcFactor[n] = 1
		r.shared = append(r.shared, newRefCache(t.L3Bytes/t.BlockBytes))
	}
	for c := 0; c < t.TotalCores(); c++ {
		r.private = append(r.private, newRefCache((t.L1Bytes+t.L2Bytes)/t.BlockBytes))
	}
	return r
}

func (r *refMachine) alloc(n int) {
	for i := 0; i < n; i++ {
		r.blocks = append(r.blocks, &refBlock{home: NoNode, mapped: map[NodeID]bool{}})
	}
}

func (r *refMachine) allocOn(n int, node NodeID, pid int) {
	r.alloc(n)
	for _, b := range r.blocks[len(r.blocks)-n:] {
		r.home(b, node, pid)
	}
}

func (r *refMachine) home(b *refBlock, node NodeID, pid int) {
	b.home, b.mapped[node] = node, true
	if r.residency[pid] == nil {
		r.residency[pid] = make([]int, r.topo.NodeCount)
	}
	r.residency[pid][node]++
}

// touch is first-touch placement with its two minor-fault situations.
func (r *refMachine) touch(block BlockID, node NodeID, pid int) NodeID {
	b := r.blocks[block]
	switch {
	case b.home == NoNode:
		r.home(b, node, pid)
		r.nodes[node].MinorFaults += uint64(r.topo.PagesPerBlock())
	case !b.mapped[node]:
		b.mapped[node] = true
		r.nodes[node].MinorFaults += uint64(r.topo.PagesPerBlock())
	}
	return b.home
}

// invalidateRemote drops the block from every cache of every other node
// and from the writer's sibling cores, counting the L3 copies dropped.
func (r *refMachine) invalidateRemote(writer CoreID, b BlockID) uint64 {
	var copies uint64
	for c, cache := range r.private {
		if CoreID(c) != writer {
			cache.invalidate(b)
		}
	}
	for n, cache := range r.shared {
		if NodeID(n) != r.topo.NodeOf(writer) && cache.invalidate(b) {
			copies++
		}
	}
	return copies
}

func (r *refMachine) access(core CoreID, block BlockID, byteCount int, write bool, pid int) Cost {
	if byteCount <= 0 {
		return Cost{}
	}
	t, node := r.topo, r.topo.NodeOf(core)
	lines := uint64((byteCount + t.CacheLineBytes - 1) / t.CacheLineBytes)
	home := r.touch(block, node, pid)
	r.nodes[home].DataTouches++

	var c Cost
	switch {
	case r.private[core].touch(block):
		r.shared[node].touch(block) // the L3 is inclusive
		r.nodes[node].L3Hits += lines
		c.Cycles = lines * r.cost.PrivateHit
	case r.shared[node].touch(block):
		r.nodes[node].L3Hits += lines
		c.Cycles = lines * r.cost.L3Hit
	default:
		bytes := lines * uint64(t.CacheLineBytes)
		r.nodes[node].L3Misses += lines
		r.nodes[home].IMCBytes += bytes
		r.window.imcBytes[home] += bytes
		if home == node {
			c.Cycles = uint64(float64(lines*r.cost.LocalMemory) * r.imcFactor[home])
			break
		}
		per := r.cost.RemoteMemory + uint64(t.Hops(node, home)-1)*r.cost.PerHop
		c.Cycles = uint64(float64(lines*per) * max(r.htFactor, r.imcFactor[home]))
		c.HTBytes = bytes
		r.nodes[home].HTBytesIn += bytes
	}
	if write {
		if inv := r.invalidateRemote(core, block); inv > 0 {
			r.nodes[node].Invalidations += inv
			c.Cycles += inv * r.cost.Invalidation * lines
			c.HTBytes += inv * uint64(t.CacheLineBytes)
		}
	}
	r.nodes[node].HTBytesOut += c.HTBytes
	r.window.htBytes += c.HTBytes
	return c
}

func (r *refMachine) accessRange(core CoreID, ra RangeAccess) Cost {
	var total Cost
	for i := 0; i < ra.Blocks; i++ {
		c := r.access(core, ra.Start+BlockID(i), ra.bytesOf(i, r.topo.BlockBytes), ra.Write, ra.PID)
		total.Cycles += c.Cycles
		total.HTBytes += c.HTBytes
	}
	return total
}

func (r *refMachine) advanceTime(cycles uint64) {
	r.now += cycles
	r.window.cycles += cycles
	if r.window.cycles < r.topo.SecondsToCycles(1e-3) {
		return
	}
	seconds := r.topo.CyclesToSeconds(r.window.cycles)
	r.htFactor = smoothFactor(r.htFactor, float64(r.window.htBytes)/(r.topo.HTBandwidth*seconds))
	for n := range r.imcFactor {
		r.imcFactor[n] = smoothFactor(r.imcFactor[n], float64(r.window.imcBytes[n])/(r.topo.MemBandwidth*seconds))
		r.window.imcBytes[n] = 0
	}
	r.window.htBytes, r.window.cycles = 0, 0
}

// snapshot reads the counters: no core of the reference is ever busy, so
// every core has idled the whole clock.
func (r *refMachine) snapshot() Counters {
	cores := make([]CoreCounters, r.topo.TotalCores())
	for i := range cores {
		cores[i].IdleCycles = r.now
	}
	return Counters{Now: r.now, Nodes: append([]NodeCounters{}, r.nodes...), Cores: cores}
}

func (r *refMachine) residencyOf(pids []int) []int {
	out := make([]int, r.topo.NodeCount)
	for _, pid := range pids {
		for n, c := range r.residency[pid] {
			out[n] += c
		}
	}
	return out
}

// order returns the cache's blocks from most to least recently used.
func (c *lruCache) order() []BlockID {
	out := []BlockID{}
	for e := c.head; e != noEntry; e = c.ent[e].next {
		out = append(out, c.ent[e].block)
	}
	return out
}

// audit checks the directory against the arenas it indexes: every cell
// names the arena entry of its block, every entry keeps its block's slot,
// every row counts its cells, a block has a row exactly while some cache
// holds it, recycled rows are empty, and the block table past the
// high-water mark is still zero: no block there is homed or has a row.
func (h *cacheHierarchy) audit() error {
	d := h.dir
	held := map[BlockID]int{}
	for col, c := range h.caches {
		blocks := c.order()
		if len(blocks) != c.n || c.n > c.capacity {
			return fmt.Errorf("cache %d: %d linked entries, n = %d, capacity %d", col, len(blocks), c.n, c.capacity)
		}
		for _, b := range blocks {
			e := c.cell(b)
			if e == 0 || c.ent[e-1].block != b {
				return fmt.Errorf("cache %d holds block %d, its cell says entry %d", col, b, int(e)-1)
			}
			if kept, slot := c.ent[e-1].slot, d.mem.block(b).slot; kept != slot {
				return fmt.Errorf("cache %d's entry for block %d keeps slot %d, the block's slot is %d", col, b, kept, slot)
			}
			held[b]++
		}
	}
	rows := 0
	mem := d.mem
	for b := range len(mem.pages) * pageBlocks {
		info := mem.pages[b/pageBlocks][b%pageBlocks]
		if b >= mem.n {
			if info != (blockInfo{}) {
				return fmt.Errorf("block %d, past the %d allocated, is not zero: %+v", b, mem.n, info)
			}
			continue
		}
		if info.slot == 0 {
			if held[BlockID(b)] != 0 {
				return fmt.Errorf("block %d is held by %d caches and has no row", b, held[BlockID(b)])
			}
			continue
		}
		row := d.row(info.slot)
		rows++
		cells := 0
		for _, e := range row[:d.cols] {
			if e != 0 {
				cells++
			}
		}
		if cells == 0 || cells != int(row[d.cols]) || cells != held[BlockID(b)] {
			return fmt.Errorf("block %d: %d cells set, row counts %d, %d caches hold it", b, cells, row[d.cols], held[BlockID(b)])
		}
	}
	if rows+len(d.free) != len(d.rows)/(d.cols+1) {
		return fmt.Errorf("%d rows in use + %d free != %d rows", rows, len(d.free), len(d.rows)/(d.cols+1))
	}
	for _, s := range d.free {
		for _, e := range d.row(s) {
			if e != 0 {
				return fmt.Errorf("recycled row %d is not empty", s)
			}
		}
	}
	return nil
}

// history decodes a byte stream into operations; an exhausted stream reads
// as zeros and ends the history.
type history struct {
	data []byte
	pos  int
}

func (h *history) next() int {
	h.pos++
	if h.pos > len(h.data) {
		return 0
	}
	return int(h.data[h.pos-1])
}

func (h *history) next16() int { return h.next()<<8 | h.next() }

// historyTopologies are the machines histories run on: the testbed and the
// eight-socket zoo shape at full size (ranges must be long to overflow an
// L3) and with caches of a few blocks and thin pipes (every step evicts,
// and the traffic congests the interconnect and the memory controllers),
// and the testbed with a 1-block private cache and a 2-block L3 (a block
// that enters one evicts the one before, and both victims may be one
// block).
func historyTopologies() []*Topology {
	thin := func(t *Topology, private, l3 int) *Topology {
		t.L1Bytes, t.L2Bytes, t.L3Bytes = t.BlockBytes, (private-1)*t.BlockBytes, l3*t.BlockBytes
		t.HTBandwidth, t.MemBandwidth = 1e9, 0.5e9
		return t
	}
	return []*Topology{
		Opteron8387(), thin(Opteron8387(), 3, 10),
		EightSocketTwisted(), thin(EightSocketTwisted(), 3, 10),
		thin(Opteron8387(), 1, 2),
	}
}

// replayHistory drives a Machine and the reference through the history and
// compares, after every step, the returned cost, the MRU-to-LRU order of
// every cache, the counters, the congestion factor and the residency. It
// returns the final counters and the highest congestion factor seen. The
// history's blocks start at base: the blocks below it are allocated and
// never touched, so a base a few blocks below a page of the block table
// makes its ranges and regions straddle pages.
func replayHistory(t *testing.T, topo *Topology, data []byte, base int) (end Counters, peakHT float64) {
	t.Helper()
	m, ref := NewMachine(topo), newRefMachine(topo)
	if base > 0 {
		m.Memory().Alloc(base)
		ref.alloc(base)
	}
	m.Memory().Alloc(48)
	ref.alloc(48)
	refCaches := append(append([]*refCache{}, ref.private...), ref.shared...)
	cores, quantum := topo.TotalCores(), topo.SecondsToCycles(50e-6)
	l3Blocks := topo.L3Bytes / topo.BlockBytes
	h := &history{data: data}
	for step := 0; h.pos < len(data); step++ {
		// Blocks are drawn from [lo, total). Where an L3 holds a block or
		// two, blocks drawn from the whole space would almost never be met
		// again before their eviction, so there lo trails the high-water
		// mark by 16 blocks.
		total, lo := m.Memory().TotalBlocks(), base
		if l3Blocks <= 2 {
			lo = max(base, total-16)
		}
		var got, want Cost
		var what string
		switch op := h.next() % 16; op {
		case 0, 1:
			n, node, pid := 1+h.next()%96, NodeID(h.next()%topo.NodeCount), 1+h.next()%2
			what = fmt.Sprintf("alloc %d on %d", n, node)
			if op == 0 {
				m.Memory().Alloc(n)
				ref.alloc(n)
			} else {
				m.Memory().AllocOn(n, node, pid)
				ref.allocOn(n, node, pid)
			}
		case 2:
			core := CoreID(h.next() % cores)
			what = fmt.Sprintf("drop core %d", core)
			m.DropCoreAffinity(core)
			ref.private[core].clear()
		case 3, 4:
			n := uint64(1 + h.next()%8)
			what = fmt.Sprintf("advance %d quanta", n)
			m.AdvanceTime(n * quantum)
			ref.advanceTime(n * quantum)
		case 5, 6:
			core := CoreID(h.next() % cores)
			a := Access{Block: BlockID(lo + h.next16()%(total-lo)), Bytes: h.next16() % (topo.BlockBytes + 1), Write: h.next()%4 == 0, PID: 1 + h.next()%2}
			what = fmt.Sprintf("core %d %+v", core, a)
			got = m.Access(core, a)
			want = ref.access(core, a.Block, a.Bytes, a.Write, a.PID)
		default:
			core := CoreID(h.next() % cores)
			ra := RangeAccess{Start: BlockID(lo + h.next16()%(total-lo)), Blocks: 1 + h.next()%24, Write: h.next()%4 == 0, PID: 1 + h.next()%2}
			if op == 7 {
				// Longer than the private cache and the L3.
				ra.Blocks = l3Blocks + h.next()%l3Blocks
			}
			ra.Blocks = min(ra.Blocks, total-int(ra.Start))
			if h.next()%2 == 0 {
				ra.FirstBytes = 1 + h.next16()%topo.BlockBytes
			}
			if h.next()%2 == 0 {
				ra.LastBytes = 1 + h.next16()%topo.BlockBytes
			}
			what = fmt.Sprintf("core %d %+v", core, ra)
			got = m.AccessRange(core, ra)
			want = ref.accessRange(core, ra)
		}
		if got != want {
			t.Fatalf("step %d (%s): cost %+v, reference %+v", step, what, got, want)
		}
		for col, c := range m.caches.caches {
			if got, want := c.order(), refCaches[col].blocks(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%s): cache %d holds, MRU first, %v; reference %v", step, what, col, got, want)
			}
		}
		if err := m.caches.audit(); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		if got, want := m.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): counters %+v, reference %+v", step, what, got, want)
		}
		if m.HTCongestion() != ref.htFactor {
			t.Fatalf("step %d (%s): HT congestion %v, reference %v", step, what, m.HTCongestion(), ref.htFactor)
		}
		peakHT = max(peakHT, ref.htFactor)
		for _, pids := range [][]int{{1}, {2}, {1, 2}} {
			if got, want := m.Residency(pids), ref.residencyOf(pids); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%s): residency of %v is %v, reference %v", step, what, pids, got, want)
			}
		}
	}
	return m.Snapshot(), peakHT
}

// pageEdge is a history base that ends the first 48 blocks three blocks
// below the second page of the block table, so the next region straddles
// the page boundary.
const pageEdge = pageBlocks - 48 - 3

// TestCacheDirectoryAgainstReference is the differential test: random
// histories of reads, writes, partial first and last blocks, ranges longer
// than a private cache and an L3, affinity drops, clock advances and
// allocations in mid-history, from two PIDs and every core, on each
// topology. The third history runs at the edge of a page.
func TestCacheDirectoryAgainstReference(t *testing.T) {
	for i, topo := range historyTopologies() {
		t.Run(fmt.Sprintf("%d/%dx%d", i, topo.NodeCount, topo.CoresPerNode), func(t *testing.T) {
			congested := false
			for seed := int64(1); seed <= 3; seed++ {
				data := make([]byte, 6000)
				rand.New(rand.NewSource(seed)).Read(data)
				base := 0
				if seed == 3 {
					base = pageEdge
				}
				end, peakHT := replayHistory(t, topo, data, base)
				congested = congested || peakHT > 1
				var hits, invalidations uint64
				for _, n := range end.Nodes {
					hits += n.L3Hits
					invalidations += n.Invalidations
				}
				if hits == 0 || invalidations == 0 || end.TotalL3Misses() == 0 || end.TotalHTBytes() == 0 {
					t.Fatalf("seed %d: the history never hit, missed, invalidated or went remote: %+v", seed, end)
				}
			}
			if thin := topo.HTBandwidth < 10e9; thin && !congested {
				t.Fatal("no history congested the thin interconnect")
			}
		})
	}
}

// FuzzCacheDirectory feeds the same driver from a byte stream: the first
// byte picks the topology and whether the history runs at the edge of a
// page, the rest is the history.
func FuzzCacheDirectory(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	topos := historyTopologies()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 4096 {
			return
		}
		base := 0
		if int(data[0])/len(topos)%2 == 1 {
			base = pageEdge
		}
		replayHistory(t, topos[int(data[0])%len(topos)], data[1:], base)
	})
}

// TestDropCoreAffinityKeepsL3: a core that lost its affinity misses its
// private cache on every block it held, and its node's L3 still serves
// them; the other cores of the node keep their private copies.
func TestDropCoreAffinityKeepsL3(t *testing.T) {
	topo := Opteron8387()
	m := NewMachine(topo)
	const blocks = 8
	r := m.Memory().AllocOn(blocks, 0, 1)
	read := RangeAccess{Start: r.Start, Blocks: blocks, PID: 1}
	m.AccessRange(0, read)
	m.AccessRange(1, read)
	m.DropCoreAffinity(0)
	if n := m.caches.private[0].Len(); n != 0 {
		t.Fatalf("dropped core still holds %d blocks", n)
	}
	lines := uint64(blocks * topo.LinesPerBlock())
	before := m.Snapshot().Nodes[0]
	if got, want := m.AccessRange(0, read).Cycles, lines*m.cost.L3Hit; got != want {
		t.Errorf("re-read after the drop cost %d cycles, want %d: an L3 hit on every line", got, want)
	}
	if got, want := m.AccessRange(1, read).Cycles, lines*m.cost.PrivateHit; got != want {
		t.Errorf("the sibling core's re-read cost %d cycles, want %d: a private hit on every line", got, want)
	}
	if after := m.Snapshot().Nodes[0]; after.L3Misses != before.L3Misses || after.L3Hits != before.L3Hits+2*lines {
		t.Errorf("L3 hits %d -> %d, misses %d -> %d; want %d more hits and no miss",
			before.L3Hits, after.L3Hits, before.L3Misses, after.L3Misses, 2*lines)
	}
}
