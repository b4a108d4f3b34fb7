package numa

// counters.go defines the hardware-counter surface of the machine: the
// per-node and per-core event counts the paper's prototype reads through
// likwid (L3CACHE, HT, MEM groups), mpstat (CPU load) and /proc (minor
// faults). The elastic mechanism consumes snapshots and windows of these
// counters; it never reaches into the machine internals.

// NodeCounters holds cumulative event counts for one NUMA node.
type NodeCounters struct {
	// L3Hits and L3Misses count shared-cache lookups at line granularity
	// (one block access contributes LinesPerBlock events).
	L3Hits   uint64
	L3Misses uint64
	// HTBytesOut / HTBytesIn count interconnect traffic crossing this
	// node's links, requester side / responder side.
	HTBytesOut uint64
	HTBytesIn  uint64
	// IMCBytes counts bytes served by this node's integrated memory
	// controller (local DRAM traffic; the likwid MEM group).
	IMCBytes uint64
	// MinorFaults counts VM minor faults attributed to this node.
	MinorFaults uint64
	// Invalidations counts coherence invalidations of this node's cached
	// copies triggered by remote writers.
	Invalidations uint64
	// DataTouches counts block accesses whose target data is homed on
	// this node, wherever the accessing core sits. Its per-window delta
	// tells the adaptive mode where the active address space lives.
	DataTouches uint64
}

// CoreCounters holds cumulative cycle accounting for one core. Only busy
// cycles are counted: idle is the elapsed clock less busy, computed when
// the counters are read and never charged, so the two always sum to the
// clock.
type CoreCounters struct {
	BusyCycles uint64
	IdleCycles uint64
}

// Counters is a full snapshot of the machine's counter state at a point in
// virtual time.
type Counters struct {
	// Now is the virtual time of the snapshot, in cycles.
	Now uint64
	// Nodes and Cores are indexed by NodeID / CoreID.
	Nodes []NodeCounters
	Cores []CoreCounters
}

// IdleFor reports whether the window c is n cycles in which nothing
// happened: no core was busy and no node counted an event.
func (c Counters) IdleFor(n uint64) bool {
	if c.Now != n {
		return false
	}
	for _, core := range c.Cores {
		if core.BusyCycles != 0 {
			return false
		}
	}
	for _, node := range c.Nodes {
		if node != (NodeCounters{}) {
			return false
		}
	}
	return true
}

// Sub returns the per-event deltas of c relative to an earlier snapshot
// prev, as a new value. Phase start/end windows use it; the per-period
// control loop uses the allocation-free CounterWindow instead.
func (c Counters) Sub(prev Counters) Counters {
	out := Counters{
		Nodes: make([]NodeCounters, len(c.Nodes)),
		Cores: make([]CoreCounters, len(c.Cores)),
	}
	out.setDelta(c, prev)
	return out
}

// setDelta stores cur - prev into d, whose slices are already sized like
// cur's. d may alias either operand: every element is read before it is
// written. Entries prev lacks keep cur's value.
func (d *Counters) setDelta(cur, prev Counters) {
	d.Now = cur.Now - prev.Now
	for i, n := range cur.Nodes {
		if i < len(prev.Nodes) {
			p := prev.Nodes[i]
			n.L3Hits -= p.L3Hits
			n.L3Misses -= p.L3Misses
			n.HTBytesOut -= p.HTBytesOut
			n.HTBytesIn -= p.HTBytesIn
			n.IMCBytes -= p.IMCBytes
			n.MinorFaults -= p.MinorFaults
			n.Invalidations -= p.Invalidations
			n.DataTouches -= p.DataTouches
		}
		d.Nodes[i] = n
	}
	for i, c := range cur.Cores {
		if i < len(prev.Cores) {
			c.BusyCycles -= prev.Cores[i].BusyCycles
			c.IdleCycles -= prev.Cores[i].IdleCycles
		}
		d.Cores[i] = c
	}
}

// TotalHTBytes returns interconnect bytes summed over nodes (requester
// side, so each transfer is counted once).
func (c Counters) TotalHTBytes() uint64 {
	var sum uint64
	for _, n := range c.Nodes {
		sum += n.HTBytesOut
	}
	return sum
}

// TotalIMCBytes returns memory-controller bytes summed over nodes.
func (c Counters) TotalIMCBytes() uint64 {
	var sum uint64
	for _, n := range c.Nodes {
		sum += n.IMCBytes
	}
	return sum
}

// TotalL3Misses returns shared-cache misses summed over nodes.
func (c Counters) TotalL3Misses() uint64 {
	var sum uint64
	for _, n := range c.Nodes {
		sum += n.L3Misses
	}
	return sum
}

// TotalMinorFaults returns minor faults summed over nodes.
func (c Counters) TotalMinorFaults() uint64 {
	var sum uint64
	for _, n := range c.Nodes {
		sum += n.MinorFaults
	}
	return sum
}

// HTIMCRatio returns the interconnect-to-memory traffic ratio, the
// NUMA-friendliness metric of Section V-B ("the system is able to process
// more data with less interconnection traffic"). Smaller is better. Returns
// 0 when no memory traffic occurred.
func (c Counters) HTIMCRatio() float64 {
	imc := c.TotalIMCBytes()
	if imc == 0 {
		return 0
	}
	return float64(c.TotalHTBytes()) / float64(imc)
}

// CPULoad returns the mean busy fraction (0..100) over the given cores. A
// nil core list averages over all cores.
func (c Counters) CPULoad(cores []CoreID) float64 {
	if len(cores) == 0 {
		cores = make([]CoreID, len(c.Cores))
		for i := range cores {
			cores[i] = CoreID(i)
		}
	}
	var busy, total uint64
	for _, id := range cores {
		cc := c.Cores[id]
		busy += cc.BusyCycles
		total += cc.BusyCycles + cc.IdleCycles
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(busy) / float64(total)
}
