package numa

import (
	"testing"
	"testing/quick"
)

// newLRUCache returns a stand-alone cache: the only column of a directory
// of its own, over a memory that holds every block these tests touch.
func newLRUCache(capacity int) *lruCache {
	mem := NewMemory(Opteron8387())
	mem.Alloc(1024)
	return newDirectory(mem, 1).newCache(0, capacity)
}

// testHierarchy returns the caches of a machine with blocks [0, blocks).
func testHierarchy(t *Topology, blocks int) *cacheHierarchy {
	mem := NewMemory(t)
	mem.Alloc(blocks)
	return newCacheHierarchy(t, mem)
}

// access is one block access on the given core.
func (h *cacheHierarchy) access(core CoreID, b BlockID) lookupLevel {
	return h.walk(h.private[core], h.shared[h.topo.NodeOf(core)], b, h.dir.mem.block(b))
}

func TestLRUBasicHitMiss(t *testing.T) {
	c := newLRUCache(2)
	if hit, _, _ := c.Touch(1); hit {
		t.Error("cold cache should miss")
	}
	if hit, _, _ := c.Touch(1); !hit {
		t.Error("second access should hit")
	}
	c.Touch(2)
	_, victim, evicted := c.Touch(3)
	if !evicted || victim != 1 {
		t.Errorf("expected eviction of block 1, got evicted=%v victim=%d", evicted, victim)
	}
	if c.Contains(1) {
		t.Error("evicted block still resident")
	}
}

func TestLRURecencyOrder(t *testing.T) {
	c := newLRUCache(2)
	c.Touch(1)
	c.Touch(2)
	c.Touch(1) // promote 1; 2 is now LRU
	_, victim, evicted := c.Touch(3)
	if !evicted || victim != 2 {
		t.Errorf("expected eviction of 2 (LRU), got evicted=%v victim=%d", evicted, victim)
	}
}

func TestLRUInvalidate(t *testing.T) {
	c := newLRUCache(4)
	c.Touch(10)
	if !c.Invalidate(10) {
		t.Error("Invalidate of resident block returned false")
	}
	if c.Invalidate(10) {
		t.Error("Invalidate of absent block returned true")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
}

func TestLRUNeverExceedsCapacity(t *testing.T) {
	f := func(capRaw uint8, accesses []uint16) bool {
		capacity := int(capRaw%16) + 1
		c := newLRUCache(capacity)
		for _, a := range accesses {
			c.Touch(BlockID(a % 64))
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLRUClear(t *testing.T) {
	c := newLRUCache(4)
	for i := BlockID(0); i < 4; i++ {
		c.Touch(i)
	}
	c.Clear()
	if c.Len() != 0 {
		t.Errorf("Len after Clear = %d", c.Len())
	}
	if hit, _, _ := c.Touch(0); hit {
		t.Error("cleared cache should miss")
	}
}

func TestHierarchySharedL3WithinNode(t *testing.T) {
	topo := Opteron8387()
	h := testHierarchy(topo, 1024)
	// Core 0 warms a block; core 1 (same node) should find it in L3.
	if lvl := h.access(0, 100); lvl != levelMemory {
		t.Fatalf("cold access level = %v, want memory", lvl)
	}
	if lvl := h.access(1, 100); lvl != levelL3 {
		t.Errorf("same-node access level = %v, want L3 hit", lvl)
	}
	// A core on another node misses: L3s are per node.
	if lvl := h.access(topo.CoreOf(1, 0), 100); lvl != levelMemory {
		t.Errorf("cross-node access level = %v, want memory", lvl)
	}
}

func TestHierarchyPrivateHit(t *testing.T) {
	topo := Opteron8387()
	h := testHierarchy(topo, 1024)
	h.access(0, 7)
	if lvl := h.access(0, 7); lvl != levelPrivate {
		t.Errorf("repeat access level = %v, want private hit", lvl)
	}
}

func TestInvalidateRemoteCountsCopies(t *testing.T) {
	topo := Opteron8387()
	h := testHierarchy(topo, 1024)
	// Warm block 5 into nodes 1, 2, 3.
	h.access(topo.CoreOf(1, 0), 5)
	h.access(topo.CoreOf(2, 0), 5)
	h.access(topo.CoreOf(3, 0), 5)
	inv := h.invalidateRemote(topo.CoreOf(0, 0), 5)
	if inv != 3 {
		t.Errorf("invalidated %d node copies, want 3", inv)
	}
	for n := 1; n < 4; n++ {
		if h.l3Resident(NodeID(n), 5) {
			t.Errorf("node %d still holds invalidated block", n)
		}
	}
	// A second write invalidates nothing.
	if inv := h.invalidateRemote(topo.CoreOf(0, 0), 5); inv != 0 {
		t.Errorf("second invalidate = %d, want 0", inv)
	}
}

func TestCapacityConflictAcrossWorkingSets(t *testing.T) {
	// Two cores on one node streaming disjoint working sets larger than
	// the shared L3 must evict each other (the paper's motivation for not
	// packing unrelated threads densely).
	topo := Opteron8387()
	h := testHierarchy(topo, 1024)
	l3Blocks := topo.L3Bytes / topo.BlockBytes
	setA := make([]BlockID, l3Blocks)
	setB := make([]BlockID, l3Blocks)
	for i := range setA {
		setA[i] = BlockID(i)
		setB[i] = BlockID(l3Blocks + i)
	}
	// Interleave full passes; on the second pass nothing can hit in L3.
	for _, b := range setA {
		h.access(0, b)
	}
	for _, b := range setB {
		h.access(1, b)
	}
	misses := 0
	for _, b := range setA {
		if !h.shared[0].Contains(b) {
			misses++
		}
	}
	if misses == 0 {
		t.Error("expected conflict evictions of set A after streaming set B")
	}
}
