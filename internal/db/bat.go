// Package db is a Volcano-style columnar database engine modelled on the
// systems the paper evaluates. Like MonetDB, it stores each column as a
// Binary Association Table (BAT), executes one operator at a time with
// horizontal parallelism (every operator fans out one task per worker over
// disjoint partitions), and runs a fixed pool of worker threads, one per
// hardware core. A NUMA-aware placement mode reproduces SQL Server's
// behaviour: workers pinned to cores and tasks dispatched toward the node
// holding their data.
//
// All column data is real (queries compute true results); simultaneously,
// every scan, materialization and probe charges block-granular accesses to
// the simulated NUMA machine, which is what the elastic mechanism observes.
package db

import (
	"fmt"
	"math"
	"sort"

	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// Kind is the storage type of a BAT's tail column.
type Kind uint8

const (
	// KindI64 stores 64-bit integers (also OIDs, dates as yyyymmdd, and
	// dictionary codes for strings).
	KindI64 Kind = iota
	// KindF64 stores 64-bit floats (prices, discounts, quantities).
	KindF64
)

// valueBytes is the storage width of every value (MonetDB-style fixed
// 8-byte tails).
const valueBytes = 8

// BAT is a Binary Association Table: a head of virtual OIDs (0..n-1) and a
// typed tail vector. Base-table BATs are backed by a region of simulated
// NUMA memory homed lazily at first touch during scans; intermediate BATs
// are homed by the task that materializes them.
//
// A candidate list covering consecutive rows has no tail vector at all
// (MonetDB's void tail): n > 0 marks the dense form, whose OIDs are seq,
// seq+1, ..., seq+n-1. Len, Bytes, the simulated region and every charge
// are those of the materialized vector; only the host-side identity
// vector is gone.
//
// A projection read only through strips (vec) is, as in MonetDB, a view:
// view marks a tail the BAT borrows and the pool never files. Through a
// dense candidate list the tail is the base rows the candidates cover,
// capped so no append reaches past them; through a sparse one (sparse) it
// is the candidate list's ids, and the values are those rows of the base
// column the view's PartSet names (PartSet.col), which the readers gather a
// strip at a time. A replayed selection's tail is a view too, of a list the
// engine's recycler keeps (recycle.go). A view has its own region and
// charges, those of the copy it stands for; only the host copy is gone. The
// header stays 96 bytes, the stride of a stage's header array
// (TestBATHeaderSize), which is why the region keeps its start block only —
// its block count follows from Len — and why a sparse view's base column
// rides on its PartSet.
type BAT struct {
	Name   string
	Kind   Kind
	placed bool
	view   bool
	sparse bool
	I      []int64
	F      []float64

	seq, n int
	start  numa.BlockID
}

// NewI64 builds an integer BAT over the given values.
func NewI64(name string, vals []int64) *BAT { return &BAT{Name: name, Kind: KindI64, I: vals} }

// NewF64 builds a float BAT over the given values.
func NewF64(name string, vals []float64) *BAT { return &BAT{Name: name, Kind: KindF64, F: vals} }

// newDense builds the tail-less candidate list of rows [lo, lo+n).
func newDense(name string, lo, n int) *BAT {
	return &BAT{Name: name, Kind: KindI64, seq: lo, n: n}
}

// Len returns the number of values.
func (b *BAT) Len() int {
	if b.n > 0 {
		return b.n
	}
	if b.Kind == KindI64 || b.sparse {
		return len(b.I)
	}
	return len(b.F)
}

// viewOf makes b, an empty fragment of c's kind, the view of the rows of
// column c that candidate list cand covers.
func (b *BAT) viewOf(c, cand *BAT) {
	b.view = true
	switch lo, hi := cand.seq, cand.seq+cand.n; {
	case cand.n == 0:
		b.I, b.sparse = cand.I[:len(cand.I):len(cand.I)], true
	case c.Kind == KindI64:
		b.I = c.I[lo:hi:hi]
	default:
		b.F = c.F[lo:hi:hi]
	}
}

// noKeys is the empty key interval widen starts from.
func noKeys() (lo, hi int64) { return math.MaxInt64, math.MinInt64 }

// widen extends [lo, hi] to cover the integer tail (join or group keys
// about to be inserted into a key table): a dense candidate contributes
// its range without a scan, nil and float BATs nothing. A sparse view's
// keys are widened through vec.
func (b *BAT) widen(lo, hi int64) (int64, int64) {
	if b == nil {
		return lo, hi
	}
	if b.n > 0 {
		return min(lo, int64(b.seq)), max(hi, int64(b.seq+b.n-1))
	}
	for _, k := range b.I {
		lo, hi = min(lo, k), max(hi, k)
	}
	return lo, hi
}

// stripRows is how many rows of a fragment that is not stored as values —
// a sparse view, a dense candidate list — a kernel reads at a time: the
// strip buffer it fills lives on the kernel's stack.
const stripRows = 256

// The strip buffers of the two value kinds.
type (
	intStrip   [stripRows]int64
	floatStrip [stripRows]float64
)

// vec is a fragment as the kernels that read values read it — maps, sums,
// grouped sums, hash builds and the key bounds of their tables: the BAT
// and, when it is a sparse view, the base column its ids index (nil
// otherwise). Its accessors are those kernels' batch contract: rows [a, b)
// as a slice, in place when they are stored as values and written into the
// caller's strip buffer otherwise, so b-a may exceed stripRows only for a
// fragment stored as values.
type vec struct {
	*BAT
	col *BAT
}

// ints returns rows [a, b) of an integer fragment (see vec): its tail, a
// dense candidate list's OIDs or a sparse view's gathered values.
func (v vec) ints(a, b int, buf *intStrip) []int64 {
	switch {
	case v.n > 0:
		out := buf[:b-a]
		for k := range out {
			out[k] = int64(v.seq + a + k)
		}
		return out
	case v.sparse:
		ids, out, col := v.I[a:b], buf[:b-a], v.col.I
		for k, id := range ids {
			out[k] = col[id]
		}
		return out
	}
	return v.I[a:b]
}

// floatRows returns how many float values v holds: its rows, or none for an
// integer fragment, which a float kernel reads as empty.
func (v vec) floatRows() int {
	if v.Kind != KindF64 {
		return 0
	}
	return v.Len()
}

// floats returns rows [a, b) of a float fragment (see vec): its tail or a
// sparse view's gathered values.
func (v vec) floats(a, b int, buf *floatStrip) []float64 {
	if !v.sparse {
		return v.F[a:b]
	}
	ids, out, col := v.I[a:b], buf[:b-a], v.col.F
	for k, id := range ids {
		out[k] = col[id]
	}
	return out
}

// widen is BAT.widen over the values v reads, a sparse view's gathered a
// strip at a time, so a table sized from them is sized exactly as from the
// copy.
func (v vec) widen(lo, hi int64) (int64, int64) {
	if v.BAT == nil || !v.sparse {
		return v.BAT.widen(lo, hi)
	}
	var buf intStrip
	for a, n := 0, v.Len(); a < n; a += stripRows {
		for _, k := range v.ints(a, min(a+stripRows, n), &buf) {
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	return lo, hi
}

// Bytes returns the simulated storage footprint.
func (b *BAT) Bytes() int { return b.Len() * valueBytes }

// blocks returns the size of the backing region in placement blocks.
func (b *BAT) blocks(blockBytes int) int { return (b.Bytes() + blockBytes - 1) / blockBytes }

// ensureRegion allocates backing blocks for the BAT if needed.
func (b *BAT) ensureRegion(mem *numa.Memory, blockBytes int) {
	if b.placed || b.Len() == 0 {
		return
	}
	b.start = mem.Alloc(b.blocks(blockBytes)).Start
	b.placed = true
}

// chargeRange issues the simulated memory accesses for rows [lo, hi) of
// the BAT on the executing core, returning the cycle cost. write marks the
// accesses as stores (materialization), triggering coherence traffic. The
// whole contiguous run is charged through one bulk AccessRange call.
func (b *BAT) chargeRange(ctx *sched.ExecContext, lo, hi int, write bool) uint64 {
	if b.Len() == 0 || hi <= lo {
		return 0
	}
	topo := ctx.Machine.Topology()
	b.ensureRegion(ctx.Machine.Memory(), topo.BlockBytes)
	startByte := lo * valueBytes
	endByte := hi * valueBytes
	firstBlock := startByte / topo.BlockBytes
	lastBlock := (endByte - 1) / topo.BlockBytes
	firstEnd := (firstBlock + 1) * topo.BlockBytes
	if firstEnd > endByte {
		firstEnd = endByte
	}
	lastStart := lastBlock * topo.BlockBytes
	if lastStart < startByte {
		lastStart = startByte
	}
	return ctx.AccessRange(numa.RangeAccess{
		Start:      b.start + numa.BlockID(firstBlock),
		Blocks:     lastBlock - firstBlock + 1,
		FirstBytes: firstEnd - startByte,
		LastBytes:  endByte - lastStart,
		Write:      write,
		PID:        ctx.PID,
	})
}

// HomeOfRow returns the NUMA node owning the block that holds the given
// row, or numa.NoNode when unplaced (used for NUMA-aware dispatch).
func (b *BAT) HomeOfRow(mem *numa.Memory, blockBytes, row int) numa.NodeID {
	if !b.placed {
		return numa.NoNode
	}
	blk := row * valueBytes / blockBytes
	if blk >= b.blocks(blockBytes) {
		return numa.NoNode
	}
	return mem.Home(b.start + numa.BlockID(blk))
}

// Table is a named collection of equal-length BATs.
type Table struct {
	Name string
	Rows int
	cols map[string]*BAT
}

// Col returns the named column, panicking on unknown names (schema errors
// are programming errors in plan builders).
func (t *Table) Col(name string) *BAT {
	c, ok := t.cols[name]
	if !ok {
		panic(fmt.Sprintf("db: table %s has no column %s", t.Name, name))
	}
	return c
}

// HasCol reports whether the column exists.
func (t *Table) HasCol(name string) bool {
	_, ok := t.cols[name]
	return ok
}

// Columns returns the column names (unordered).
func (t *Table) Columns() []string {
	out := make([]string, 0, len(t.cols))
	for n := range t.cols {
		out = append(out, n)
	}
	return out
}

// Store is the database catalog bound to a simulated machine.
type Store struct {
	machine *numa.Machine
	tables  map[string]*Table
	// loadPID owns base-column pages for residency accounting; loadNode
	// rotates per created column, modelling a sequential loader whose
	// first-touch lands each column on the node it happened to occupy
	// (the per-socket column placement visible in the paper's Fig 18).
	loadPID  int
	loadNode int
}

// NewStore creates an empty catalog over the machine. Base columns are
// homed at load time under the given owner pid, one node per column in
// rotation.
func NewStore(m *numa.Machine) *Store {
	return &Store{machine: m, tables: make(map[string]*Table), loadPID: 1}
}

// SetLoadPID sets the process id that owns base-table pages (usually the
// DBMS server pid, so the adaptive mode's residency sees them).
func (s *Store) SetLoadPID(pid int) { s.loadPID = pid }

// Machine returns the backing hardware model.
func (s *Store) Machine() *numa.Machine { return s.machine }

// CreateTable registers a table from its columns; all columns must share
// one length. Backing regions are allocated immediately but homed lazily
// at first touch, matching memory-mapped base columns.
func (s *Store) CreateTable(name string, cols map[string]*BAT) (*Table, error) {
	if _, dup := s.tables[name]; dup {
		return nil, fmt.Errorf("db: table %s already exists", name)
	}
	rows := -1
	for cname, c := range cols {
		if rows == -1 {
			rows = c.Len()
		} else if c.Len() != rows {
			return nil, fmt.Errorf("db: table %s column %s has %d rows, want %d", name, cname, c.Len(), rows)
		}
	}
	if rows < 0 {
		rows = 0
	}
	t := &Table{Name: name, Rows: rows, cols: cols}
	// Allocate regions in name order: map iteration order must never
	// influence the address-space layout (simulation determinism).
	names := make([]string, 0, len(cols))
	for n := range cols {
		names = append(names, n)
	}
	sort.Strings(names)
	topo := s.machine.Topology()
	for _, n := range names {
		c := cols[n]
		c.ensureRegion(s.machine.Memory(), topo.BlockBytes)
		if c.placed {
			node := numa.NodeID(s.loadNode % topo.NodeCount)
			region := numa.Region{Start: c.start, Blocks: c.blocks(topo.BlockBytes)}
			s.machine.Memory().HomeRegionOn(region, node, s.loadPID)
			s.loadNode++
		}
	}
	s.tables[name] = t
	return t, nil
}

// Table returns the named table, panicking on unknown names.
func (s *Store) Table(name string) *Table {
	t, ok := s.tables[name]
	if !ok {
		panic(fmt.Sprintf("db: unknown table %s", name))
	}
	return t
}

// HasTable reports whether the table exists.
func (s *Store) HasTable(name string) bool {
	_, ok := s.tables[name]
	return ok
}
