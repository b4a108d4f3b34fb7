package tenant

import (
	"testing"

	"elasticore/internal/elastic"
	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// busyWork keeps a thread 100% busy forever.
type busyWork struct{}

func (busyWork) Run(_ *sched.ExecContext, budget uint64) (uint64, bool, bool) {
	return budget, false, false
}

// finiteWork runs for a fixed number of cycles, then exits.
type finiteWork struct{ remaining uint64 }

func (w *finiteWork) Run(_ *sched.ExecContext, budget uint64) (uint64, bool, bool) {
	if w.remaining <= budget {
		used := w.remaining
		w.remaining = 0
		return used, false, true
	}
	w.remaining -= budget
	return budget, false, false
}

type testBox struct {
	machine *numa.Machine
	sch     *sched.Scheduler
	arb     *Arbiter
}

func newBox(t *testing.T) *testBox {
	t.Helper()
	machine := numa.NewMachine(numa.Opteron8387())
	sch := sched.New(machine, sched.Config{})
	arb, err := NewArbiter(ArbiterConfig{Scheduler: sch, ControlPeriod: sch.Quantum() * 2})
	if err != nil {
		t.Fatal(err)
	}
	return &testBox{machine: machine, sch: sch, arb: arb}
}

// addTenant creates a tenant with its own cgroup and pid and registers it.
func (b *testBox) addTenant(t *testing.T, name string, pid int, mode string, sla SLA) *Tenant {
	t.Helper()
	g := b.sch.NewCGroup(name)
	g.AddPID(pid)
	topo := b.machine.Topology()
	var alloc elastic.Allocator
	switch mode {
	case "sparse":
		alloc = elastic.NewSparse(topo)
	default:
		alloc = elastic.NewDense(topo)
	}
	tn, err := New(Config{
		Name:          name,
		Scheduler:     b.sch,
		CGroup:        g,
		Allocator:     alloc,
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

// checkInvariants asserts the arbitration invariants at the current state.
func (b *testBox) checkInvariants(t *testing.T) {
	t.Helper()
	total := b.machine.Topology().TotalCores()
	var union sched.CPUSet
	sum := 0
	for _, tn := range b.arb.Tenants() {
		set := tn.Allocated()
		if n := set.Count(); n < tn.SLA.MinCores {
			t.Fatalf("tenant %s holds %d cores, SLA floor is %d", tn.Name, n, tn.SLA.MinCores)
		}
		if n := tn.Mech.Net().NAlloc(); n != set.Count() {
			t.Fatalf("tenant %s net marking %d, cpuset holds %d cores", tn.Name, n, set.Count())
		}
		if !union.Intersect(set).IsEmpty() {
			t.Fatalf("tenant %s cpuset %v overlaps another tenant (union %v)", tn.Name, set, union)
		}
		union = union.Union(set)
		sum += set.Count()
	}
	if sum > total {
		t.Fatalf("over-commit: tenants hold %d cores, machine has %d", sum, total)
	}
}

func (b *testBox) run(t *testing.T, ticks int) {
	t.Helper()
	for i := 0; i < ticks; i++ {
		b.sch.Tick()
		b.arb.Maybe()
		b.checkInvariants(t)
	}
}

func TestArbiterAddAssignsDisjointFloors(t *testing.T) {
	b := newBox(t)
	a := b.addTenant(t, "a", 101, "dense", SLA{MinCores: 2})
	c := b.addTenant(t, "c", 102, "sparse", SLA{MinCores: 4})
	d := b.addTenant(t, "d", 103, "dense", SLA{MinCores: 1})
	if got := a.Allocated().Count(); got != 2 {
		t.Errorf("tenant a starts with %d cores, want its floor 2", got)
	}
	if got := c.Allocated().Count(); got != 4 {
		t.Errorf("tenant c starts with %d cores, want its floor 4", got)
	}
	if got := d.Allocated().Count(); got != 1 {
		t.Errorf("tenant d starts with %d cores, want its floor 1", got)
	}
	b.checkInvariants(t)
}

func TestArbiterAddRejectsOverCommittedFloors(t *testing.T) {
	b := newBox(t)
	b.addTenant(t, "big", 101, "dense", SLA{MinCores: 14})
	g := b.sch.NewCGroup("greedy")
	g.AddPID(102)
	tn, err := New(Config{
		Name:      "greedy",
		Scheduler: b.sch,
		CGroup:    g,
		Allocator: elastic.NewDense(b.machine.Topology()),
		SLA:       SLA{MinCores: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.arb.Add(tn); err == nil {
		t.Error("aggregate floors 17 > 16 cores accepted")
	}
}

func TestArbiterRejectsDuplicateTenant(t *testing.T) {
	b := newBox(t)
	b.addTenant(t, "a", 101, "dense", SLA{})
	g := b.sch.NewCGroup("a2")
	g.AddPID(102)
	tn, err := New(Config{
		Name:      "a",
		Scheduler: b.sch,
		CGroup:    g,
		Allocator: elastic.NewDense(b.machine.Topology()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.arb.Add(tn); err == nil {
		t.Error("duplicate tenant name accepted")
	}
}

func TestArbiterNeverOvercommitsUnderContention(t *testing.T) {
	b := newBox(t)
	b.addTenant(t, "a", 101, "dense", SLA{Weight: 2, MinCores: 2})
	b.addTenant(t, "c", 102, "sparse", SLA{Weight: 1, MinCores: 1})
	b.addTenant(t, "d", 103, "dense", SLA{Weight: 1, MinCores: 1})
	// Saturate every tenant so aggregate demand races past the machine.
	for _, pid := range []int{101, 102, 103} {
		for i := 0; i < 16; i++ {
			b.sch.Spawn(pid, "w", busyWork{})
		}
	}
	b.run(t, 200) // checkInvariants every tick
	if got := b.arb.AllocatedTotal(); got != 16 {
		t.Errorf("sustained saturation allocated %d cores in total, want the full 16", got)
	}
	if b.arb.Rounds == 0 {
		t.Error("no arbitration rounds executed")
	}
}

func TestArbiterWeightsFavorGoldTenant(t *testing.T) {
	b := newBox(t)
	gold := b.addTenant(t, "gold", 101, "dense", SLA{Weight: 4, MinCores: 2})
	bronze := b.addTenant(t, "bronze", 102, "dense", SLA{Weight: 1, MinCores: 1})
	for _, pid := range []int{101, 102} {
		for i := 0; i < 20; i++ {
			b.sch.Spawn(pid, "w", busyWork{})
		}
	}
	b.run(t, 300)
	g, br := gold.Allocated().Count(), bronze.Allocated().Count()
	if g <= br {
		t.Errorf("gold (weight 4) holds %d cores, bronze (weight 1) holds %d; want gold ahead", g, br)
	}
	if br < bronze.SLA.MinCores {
		t.Errorf("bronze squeezed below its floor: %d < %d", br, bronze.SLA.MinCores)
	}
	// The grants should reflect the 4:1 split of the 13 cores above the
	// floors: gold 2+10..11, bronze 1+2..3.
	if g < 10 {
		t.Errorf("gold holds %d cores, want a weighted majority (>= 10)", g)
	}
}

func TestArbiterTransfersCoresWhenDemandShifts(t *testing.T) {
	b := newBox(t)
	a := b.addTenant(t, "early", 101, "dense", SLA{})
	c := b.addTenant(t, "late", 102, "dense", SLA{})
	// Tenant "early" is busy for a bounded burst; "late" idles.
	for i := 0; i < 16; i++ {
		b.sch.Spawn(101, "w", &finiteWork{remaining: 100 * b.sch.Quantum()})
	}
	b.run(t, 60)
	if a.Allocated().Count() <= c.Allocated().Count() {
		t.Fatalf("precondition: busy tenant (%d cores) should outgrow idle one (%d)",
			a.Allocated().Count(), c.Allocated().Count())
	}
	// Load shifts: "early" drains while "late" saturates. Its cores must
	// be transferred across the cgroups.
	for i := 0; i < 16; i++ {
		b.sch.Spawn(102, "w", busyWork{})
	}
	b.run(t, 500)
	if c.Allocated().Count() <= a.Allocated().Count() {
		t.Errorf("after the shift, late tenant holds %d cores vs early's %d; cores were not transferred",
			c.Allocated().Count(), a.Allocated().Count())
	}
	if a.Allocated().Count() < 1 {
		t.Error("drained tenant lost its last core")
	}
}

func TestArbiterHonorsPlacementModes(t *testing.T) {
	b := newBox(t)
	dense := b.addTenant(t, "packed", 101, "dense", SLA{Weight: 1, MinCores: 2})
	sparse := b.addTenant(t, "spread", 102, "sparse", SLA{Weight: 1, MinCores: 4})
	for _, pid := range []int{101, 102} {
		for i := 0; i < 12; i++ {
			b.sch.Spawn(pid, "w", busyWork{})
		}
	}
	b.run(t, 200)
	topo := b.machine.Topology()
	dSet, sSet := dense.Allocated(), sparse.Allocated()
	// Dense keeps the tenant socket-packed: it must not span more nodes
	// than its core count strictly requires.
	needed := (dSet.Count() + topo.CoresPerNode - 1) / topo.CoresPerNode
	if got := len(dSet.NodesTouched(topo)); got > needed+1 {
		t.Errorf("dense tenant %v spans %d nodes for %d cores, want <= %d", dSet, got, dSet.Count(), needed+1)
	}
	// Sparse spreads: with >= 3 cores it must span several nodes.
	if sSet.Count() >= 3 && len(sSet.NodesTouched(topo)) < 3 {
		t.Errorf("sparse tenant %v spans %d nodes, want spread", sSet, len(sSet.NodesTouched(topo)))
	}
}

func TestArbiterReleasesWhenAllIdle(t *testing.T) {
	b := newBox(t)
	a := b.addTenant(t, "a", 101, "dense", SLA{MinCores: 2})
	for i := 0; i < 16; i++ {
		b.sch.Spawn(101, "w", &finiteWork{remaining: 60 * b.sch.Quantum()})
	}
	grown := 0
	for i := 0; i < 80; i++ {
		b.sch.Tick()
		b.arb.Maybe()
		b.checkInvariants(t)
		if c := a.Allocated().Count(); c > grown {
			grown = c
		}
	}
	if grown <= 2 {
		t.Fatalf("precondition: expected growth under the burst, peak was %d cores", grown)
	}
	b.run(t, 600)
	if got := a.Allocated().Count(); got != a.SLA.MinCores {
		t.Errorf("idle tenant holds %d cores, want its floor %d", got, a.SLA.MinCores)
	}
}

func TestArbiterEventsTimeline(t *testing.T) {
	b := newBox(t)
	b.addTenant(t, "a", 101, "dense", SLA{})
	for i := 0; i < 8; i++ {
		b.sch.Spawn(101, "w", busyWork{})
	}
	b.run(t, 50)
	events := b.arb.Events()
	if len(events) == 0 {
		t.Fatal("no allocation events recorded")
	}
	var last uint64
	for _, e := range events {
		if e.Now < last {
			t.Error("events out of time order")
		}
		last = e.Now
		if e.Tenant != "a" {
			t.Errorf("unexpected tenant %q in event", e.Tenant)
		}
		if e.Grant != e.Set.Count() {
			t.Errorf("event grant %d != applied set %v", e.Grant, e.Set)
		}
		if e.Demand < 1 || e.Grant < 1 {
			t.Errorf("degenerate event %+v", e)
		}
	}
}

func TestTenantHTIMCStrategySkipsLONCRefinement(t *testing.T) {
	// The LONC estimate models a 0..100 per-core load average; for the
	// HT/IMC strategy (thresholds 100..400 in the milli domain) it must
	// stand aside and leave the net's ±1 stepping intact: the allocation
	// may only move one core per round.
	b := newBox(t)
	g := b.sch.NewCGroup("htimc")
	g.AddPID(101)
	tn, err := New(Config{
		Name:          "htimc",
		Scheduler:     b.sch,
		CGroup:        g,
		Allocator:     elastic.NewDense(b.machine.Topology()),
		Strategy:      elastic.HTIMCStrategy{},
		ControlPeriod: b.sch.Quantum() * 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.arb.Add(tn); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		b.sch.Spawn(101, "w", busyWork{})
	}
	prev := tn.Allocated().Count()
	for i := 0; i < 100; i++ {
		b.sch.Tick()
		b.arb.Maybe()
		b.checkInvariants(t)
		cur := tn.Allocated().Count()
		if diff := cur - prev; diff > 1 || diff < -1 {
			t.Fatalf("HT/IMC tenant jumped %d -> %d cores in one round; LONC refinement leaked in", prev, cur)
		}
		prev = cur
	}
}

func TestArbiterHonorsSlowerTenantControlPeriod(t *testing.T) {
	// A tenant sampling 4x slower than the arbiter must be evaluated
	// only every 4th round — the arbiter reuses its last demand in
	// between rather than shortening its windows.
	b := newBox(t)
	g := b.sch.NewCGroup("slow")
	g.AddPID(101)
	tn, err := New(Config{
		Name:          "slow",
		Scheduler:     b.sch,
		CGroup:        g,
		Allocator:     elastic.NewDense(b.machine.Topology()),
		ControlPeriod: b.sch.Quantum() * 8, // arbiter runs every 2 quanta
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.arb.Add(tn); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		b.sch.Spawn(101, "w", busyWork{})
	}
	b.run(t, 80)
	rounds, evals := b.arb.Rounds, tn.Mech.TokenFlows
	if evals == 0 {
		t.Fatal("slow tenant never evaluated")
	}
	if evals*3 > rounds {
		t.Errorf("tenant with 4x period evaluated %d times over %d arbitration rounds", evals, rounds)
	}
}

func TestNewTenantValidatesConfig(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	sch := sched.New(machine, sched.Config{})
	g := sch.NewCGroup("g")
	alloc := elastic.NewDense(machine.Topology())
	if _, err := New(Config{Scheduler: sch, CGroup: g, Allocator: alloc}); err == nil {
		t.Error("missing name accepted")
	}
	if _, err := New(Config{Name: "x", CGroup: g, Allocator: alloc}); err == nil {
		t.Error("missing scheduler accepted")
	}
	if _, err := New(Config{Name: "x", Scheduler: sch, CGroup: g}); err == nil {
		t.Error("missing allocator accepted")
	}
	if _, err := New(Config{Name: "x", Scheduler: sch, CGroup: g, Allocator: alloc,
		SLA: SLA{MinCores: 99}}); err == nil {
		t.Error("floor larger than the machine accepted")
	}
}

// TestArbiterSteadyStepDoesNotAllocate: once every tenant is saturated and
// the grants have settled, an arbitration round reuses its per-tenant
// vectors and grant buffer from the last one.
func TestArbiterSteadyStepDoesNotAllocate(t *testing.T) {
	b := newBox(t)
	b.addTenant(t, "a", 101, "dense", SLA{Weight: 2, MinCores: 2})
	b.addTenant(t, "c", 102, "sparse", SLA{Weight: 1, MinCores: 1})
	b.addTenant(t, "d", 103, "dense", SLA{Weight: 1, MinCores: 1})
	for _, pid := range []int{101, 102, 103} {
		for i := 0; i < 16; i++ {
			b.sch.Spawn(pid, "w", busyWork{})
		}
	}
	b.run(t, 200)
	if allocs := testing.AllocsPerRun(50, b.arb.Step); allocs != 0 {
		t.Errorf("a steady arbitration round allocated %v times, want 0", allocs)
	}
}

// TestZeroConfigReadsTimebase: a zero ControlPeriod is the machine's
// timebase control period.
func TestZeroConfigReadsTimebase(t *testing.T) {
	machine := numa.NewMachine(numa.Opteron8387())
	arb, err := NewArbiter(ArbiterConfig{Scheduler: sched.New(machine, sched.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := arb.ControlPeriod(), machine.Timebase().ControlPeriod; got != want {
		t.Errorf("control period %d, want the timebase's %d", got, want)
	}
}
