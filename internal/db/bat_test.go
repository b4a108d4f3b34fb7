package db

import (
	"testing"
	"testing/quick"
	"unsafe"

	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

func testMachine() *numa.Machine { return numa.NewMachine(numa.Opteron8387()) }

func TestBATLenBytes(t *testing.T) {
	b := NewI64("x", []int64{1, 2, 3})
	if b.Len() != 3 || b.Bytes() != 24 {
		t.Errorf("Len=%d Bytes=%d, want 3/24", b.Len(), b.Bytes())
	}
	f := NewF64("y", []float64{1.5})
	if f.Len() != 1 || f.Kind != KindF64 {
		t.Errorf("float BAT wrong: %+v", f)
	}
	d := newDense("z", 40, 3)
	if d.Len() != 3 || d.Bytes() != 24 || d.Kind != KindI64 || d.I != nil {
		t.Errorf("dense BAT wrong: %+v", d)
	}
}

// TestBATHeaderSize keeps the BAT header at the 96 bytes it had before the
// dense form was added. Headers are no longer allocated one by one: 96 B
// is the stride of every stage's header array (Query.newVar), the one part
// of a stage that lives as long as its query, so a wider header is that
// many more retained bytes per partition of every intermediate.
func TestBATHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(BAT{}); got > 96 {
		t.Fatalf("BAT header is %d bytes; more than 96 widens every stage's header array", got)
	}
}

func TestCreateTableValidatesLengths(t *testing.T) {
	s := NewStore(testMachine())
	_, err := s.CreateTable("t", map[string]*BAT{
		"a": NewI64("a", make([]int64, 10)),
		"b": NewI64("b", make([]int64, 9)),
	})
	if err == nil {
		t.Error("mismatched column lengths accepted")
	}
	if _, err := s.CreateTable("ok", map[string]*BAT{"a": NewI64("a", make([]int64, 4))}); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := s.CreateTable("ok", map[string]*BAT{"a": NewI64("a", nil)}); err == nil {
		t.Error("duplicate table accepted")
	}
	if !s.HasTable("ok") || s.HasTable("nope") {
		t.Error("HasTable wrong")
	}
}

func TestChargeRangeTouchesRightBlocks(t *testing.T) {
	m := testMachine()
	s := NewStore(m)
	topo := m.Topology()
	rowsPerBlock := topo.BlockBytes / valueBytes
	vals := make([]int64, 3*rowsPerBlock)
	tb, err := s.CreateTable("t", map[string]*BAT{"a": NewI64("a", vals)})
	if err != nil {
		t.Fatal(err)
	}
	c := tb.Col("a")
	// The loader homes base columns eagerly, one node per column in
	// rotation (the first column lands on node 0).
	if n := c.blocks(topo.BlockBytes); n != 3 {
		t.Fatalf("column spans %d blocks, want 3", n)
	}
	for i := numa.BlockID(0); i < 3; i++ {
		if home := m.Memory().Home(c.start + i); home != 0 {
			t.Fatalf("loader homed block %d on node %d, want 0", i, home)
		}
	}
	ctx := &sched.ExecContext{Machine: m, Core: 0, PID: 1}
	before := m.Snapshot()
	cycles := c.chargeRange(ctx, 0, rowsPerBlock, false)
	if cycles == 0 {
		t.Error("no cost charged")
	}
	w := m.Snapshot().Sub(before)
	if w.Nodes[0].DataTouches != 1 {
		t.Errorf("one-block charge touched %d blocks, want 1", w.Nodes[0].DataTouches)
	}
	// Crossing a block boundary touches two blocks.
	before = m.Snapshot()
	c.chargeRange(ctx, rowsPerBlock-1, rowsPerBlock+1, false)
	w = m.Snapshot().Sub(before)
	if w.Nodes[0].DataTouches != 2 {
		t.Errorf("boundary charge touched %d blocks, want 2", w.Nodes[0].DataTouches)
	}
}

func TestHomeOfRow(t *testing.T) {
	m := testMachine()
	s := NewStore(m)
	topo := m.Topology()
	rowsPerBlock := topo.BlockBytes / valueBytes
	// Two columns: the loader rotation places "a" on node 0 and "b" on
	// node 1 (name order).
	tb, err := s.CreateTable("t", map[string]*BAT{
		"a": NewI64("a", make([]int64, 2*rowsPerBlock)),
		"b": NewI64("b", make([]int64, 2*rowsPerBlock)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Col("a").HomeOfRow(m.Memory(), topo.BlockBytes, 0); got != 0 {
		t.Errorf("column a home = %d, want 0", got)
	}
	if got := tb.Col("b").HomeOfRow(m.Memory(), topo.BlockBytes, rowsPerBlock); got != 1 {
		t.Errorf("column b home = %d, want 1", got)
	}
	// Intermediates stay lazy: home decided by the producing core.
	inter := NewI64("x", make([]int64, rowsPerBlock))
	if got := inter.HomeOfRow(m.Memory(), topo.BlockBytes, 0); got != numa.NoNode {
		t.Errorf("unplaced intermediate home = %d, want NoNode", got)
	}
	ctx := &sched.ExecContext{Machine: m, Core: topo.CoreOf(2, 0), PID: 1}
	inter.chargeRange(ctx, 0, 1, true)
	if got := inter.HomeOfRow(m.Memory(), topo.BlockBytes, 0); got != 2 {
		t.Errorf("intermediate home after producer touch = %d, want 2", got)
	}
}

func TestPartitionRanges(t *testing.T) {
	cases := []struct {
		n, parts, min int
		wantParts     int
	}{
		{100, 4, 1, 4},
		{100, 4, 60, 1},    // minRows caps the fan-out
		{10, 16, 1, 10},    // more parts than rows collapses
		{0, 4, 1, 1},       // empty input yields one empty range
		{1000, 16, 256, 3}, // maxParts = floor(1000/256) = 3
	}
	for _, tc := range cases {
		got := partitionRanges(nil, tc.n, tc.parts, tc.min)
		if len(got) != tc.wantParts {
			t.Errorf("partitionRanges(%d,%d,%d) -> %d parts, want %d",
				tc.n, tc.parts, tc.min, len(got), tc.wantParts)
		}
	}
}

func TestPartitionRangesCoverDisjoint(t *testing.T) {
	f := func(nRaw, partsRaw, minRaw uint16) bool {
		n := int(nRaw % 5000)
		parts := int(partsRaw%32) + 1
		min := int(minRaw%512) + 1
		rs := partitionRanges(nil, n, parts, min)
		covered := 0
		last := 0
		for _, r := range rs {
			if r[0] != last || r[1] < r[0] {
				return false
			}
			covered += r[1] - r[0]
			last = r[1]
		}
		if n <= 0 {
			return covered == 0
		}
		return covered == n && last == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
