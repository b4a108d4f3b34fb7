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
// vector is gone. Projecting a dense candidate list is, as in MonetDB, a
// view: view marks a tail that borrows the rows of the base column the
// candidates cover, capped so no append reaches past them (a replayed
// selection's tail is a view too, of a list the engine's recycler keeps:
// recycle.go). The view has its own region and charges, those of the copy
// it stands for; only the host copy is gone, and the pool never files a
// view's slice. The header
// stays 96 bytes, the stride of a stage's header array (TestBATHeaderSize),
// which is why the region keeps its start block only — its block count
// follows from Len.
type BAT struct {
	Name   string
	Kind   Kind
	placed bool
	view   bool
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
	if b.Kind == KindI64 {
		return len(b.I)
	}
	return len(b.F)
}

// byPosition returns the BAT in the form operators that read a vector by
// position expect: a dense candidate list used as join keys or group keys
// is written out, everything else (nil included) is returned as it is.
func (b *BAT) byPosition() *BAT {
	if b == nil || b.n == 0 {
		return b
	}
	return NewI64(b.Name, b.appendI64(make([]int64, 0, b.n)))
}

// appendI64 appends the integer tail to dst, writing out a dense
// candidate's OIDs (result extraction and operators that read a vector by
// position; the candidate consumers take the range form as it is).
func (b *BAT) appendI64(dst []int64) []int64 {
	for oid := b.seq; oid < b.seq+b.n; oid++ {
		dst = append(dst, int64(oid))
	}
	return append(dst, b.I...)
}

// noKeys is the empty key interval widen starts from.
func noKeys() (lo, hi int64) { return math.MaxInt64, math.MinInt64 }

// widen extends [lo, hi] to cover the integer tail (join or group keys
// about to be inserted into a key table): a dense candidate contributes
// its range without a scan, nil and float BATs nothing.
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
