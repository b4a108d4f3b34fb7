package tenant

import (
	"testing"

	"elasticore/internal/elastic"
	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// placement_test.go covers the topology-aware arbitration path: tenants
// running a topology-aware allocation mode (elastic.NewHopMin,
// elastic.NewNodeFill) must receive
// hop-compact core transfers (placed relative to their *own* cores),
// on machines where node index order and hop distance disagree.

// newRingBox builds an arbiter over the four-socket ring, where node 2
// is the diagonal (2 hops) from node 0.
func newRingBox(t *testing.T) *testBox {
	t.Helper()
	machine := numa.NewMachine(numa.FourSocketRing())
	sch := sched.New(machine, sched.Config{})
	arb, err := NewArbiter(ArbiterConfig{Scheduler: sch, ControlPeriod: sch.Quantum() * 2})
	if err != nil {
		t.Fatal(err)
	}
	return &testBox{machine: machine, sch: sch, arb: arb}
}

// addPlacedTenant registers a tenant running the allocation mode newAlloc
// builds on the box's machine.
func (b *testBox) addPlacedTenant(t *testing.T, name string, pid int, newAlloc func(*numa.Topology) elastic.Allocator, sla SLA) *Tenant {
	t.Helper()
	g := b.sch.NewCGroup(name)
	g.AddPID(pid)
	tn, err := New(Config{
		Name:          name,
		Scheduler:     b.sch,
		CGroup:        g,
		Allocator:     newAlloc(b.machine.Topology()),
		SLA:           sla,
		ControlPeriod: b.sch.Quantum() * 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.arb.Add(tn); err != nil {
		t.Fatal(err)
	}
	return tn
}

// TestGrowToStaysHopCompact drives the grant routine the arbiter's grow
// phase calls: a hop-min tenant on the ring holding one core on node 1
// must grow into its own node first and then a one-hop neighbour,
// skipping the cores a neighbour tenant occupies and never reaching a
// node two hops from home.
func TestGrowToStaysHopCompact(t *testing.T) {
	b := newRingBox(t)
	topo := b.machine.Topology()
	tn := b.addPlacedTenant(t, "near", 100, elastic.NewHopMin, SLA{MinCores: 1})

	// Re-place the tenant on one core of node 1 and occupy node 3 (the
	// node diagonal to 1) wholesale, as a neighbour tenant would.
	neighbour := sched.NewCPUSet(topo.Cores(3)...)
	own := tn.Mech.Place(1, sched.FullSet(topo).Remove(topo.CoreOf(1, 0)))
	if own != sched.NewCPUSet(topo.CoreOf(1, 0)) {
		t.Fatalf("re-placed on %v, want core %d alone", own, topo.CoreOf(1, 0))
	}

	got := tn.Mech.Resize(4, own.Union(neighbour))
	if got != tn.Allocated() {
		t.Fatalf("Resize returned %v, cgroup holds %v", got, tn.Allocated())
	}
	if n := tn.Mech.Net().NAlloc(); n != got.Count() {
		t.Fatalf("net marking %d, cpuset holds %d cores", n, got.Count())
	}
	if got.Intersect(neighbour) != 0 {
		t.Fatalf("grow claimed occupied cores: %v", got)
	}
	if got.Count() != 4 {
		t.Fatalf("grew to %d cores, want 4", got.Count())
	}
	// All growth must land on node 1 (own node first: 3 free cores
	// there) and then a 1-hop neighbour — never the diagonal.
	onOwn := got.OnNode(topo, 1).Cores()
	if len(onOwn) != topo.CoresPerNode {
		t.Errorf("own node holds %d cores, want it filled first (%d)", len(onOwn), topo.CoresPerNode)
	}
	for _, n := range got.NodesTouched(topo) {
		if n != 1 && topo.Hops(1, n) != 1 {
			t.Errorf("grew onto node %d, %d hops from home node 1", n, topo.Hops(1, n))
		}
	}
}

// TestArbiterTransfersHopAware runs full arbitration rounds: when a
// hop-min tenant's demand rises, the cores it is granted must stay
// mutually close even though the lowest-index free cores sit on a
// distant node.
func TestArbiterTransfersHopAware(t *testing.T) {
	b := newRingBox(t)
	topo := b.machine.Topology()

	// "far" packs node 0 wholesale (floor 4, node-fill starts at node 0);
	// "near" starts with one core.
	far := b.addPlacedTenant(t, "far", 100, elastic.NewNodeFill, SLA{Weight: 1, MinCores: 4})
	near := b.addPlacedTenant(t, "near", 101, elastic.NewHopMin, SLA{Weight: 4, MinCores: 1})

	if got := far.Allocated().NodesTouched(topo); len(got) != 1 || got[0] != 0 {
		t.Fatalf("far tenant placed on %v, want node 0 only", got)
	}

	// Saturate the near tenant so its demand climbs, then run rounds.
	for i := 0; i < 3; i++ {
		b.sch.Spawn(101, "w", busyWork{})
	}
	for i := 0; i < 400; i++ {
		b.sch.Tick()
		b.arb.Maybe()
	}

	got := near.Allocated()
	if got.Count() < 2 {
		t.Fatalf("near tenant never grew: %v", got)
	}
	if got.Intersect(far.Allocated()) != 0 {
		t.Fatalf("tenant cpusets overlap: %v vs %v", got, far.Allocated())
	}
	// Every pair of the near tenant's cores must be within one hop: on
	// the ring a hop-compact allocation spans adjacent nodes only.
	for _, a := range got.Cores() {
		for _, c := range got.Cores() {
			if topo.Hops(topo.NodeOf(a), topo.NodeOf(c)) > 1 {
				t.Errorf("cores %d and %d are %d hops apart in %v",
					a, c, topo.Hops(topo.NodeOf(a), topo.NodeOf(c)), got)
			}
		}
	}
}
