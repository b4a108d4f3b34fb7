package cluster

import (
	"reflect"
	"testing"

	"elasticore/internal/arrivals"
	"elasticore/internal/hashmix"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
	"elasticore/internal/workload"
)

// testFleet builds a small fleet for the behavioural tests.
func testFleet(t *testing.T, machines int, mode workload.Mode, bus *obs.Bus) *Fleet {
	t.Helper()
	f, err := NewFleet(Options{
		Machines: machines,
		Shards:   2 * machines,
		SF:       0.002,
		Seed:     7,
		Mode:     mode,
		Bus:      bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// uniformKeys spreads request k over the sharder's shards, deterministic
// in k.
func uniformKeys(sh *Sharder) func(k int) uint64 {
	return func(k int) uint64 {
		return sh.KeyForShard(int(hashmix.Mix64(uint64(k+1))%uint64(sh.Shards())), uint64(k))
	}
}

// runCoordinator drives a fixed keyed workload over the fleet.
func runCoordinator(t *testing.T, f *Fleet, policy Policy) Result {
	t.Helper()
	c := &Coordinator{
		Fleet:        f,
		Process:      arrivals.NewPoisson(400, 11),
		Policy:       policy,
		Keys:         uniformKeys(f.Sharder),
		ScatterEvery: 5,
		MaxArrivals:  30,
		MaxSeconds:   120,
	}
	return c.Run()
}

// TestFleetLockstep: all machines share one quantum and advance
// together under Tick.
func TestFleetLockstep(t *testing.T) {
	f := testFleet(t, 3, workload.ModeOS, nil)
	for i := 0; i < 10; i++ {
		f.Tick()
	}
	now := f.Rigs[0].Machine.Now()
	if now == 0 {
		t.Fatal("clock did not advance")
	}
	for m, r := range f.Rigs {
		if r.Machine.Now() != now {
			t.Fatalf("machine %d at cycle %d, machine 0 at %d: fleet out of lockstep", m, r.Machine.Now(), now)
		}
	}
}

// TestCoordinatorAccounting: every offered request is accounted for,
// keyed requests land on their shard owner, scatters fan out to every
// machine, and merged scalars flow through.
func TestCoordinatorAccounting(t *testing.T) {
	f := testFleet(t, 2, workload.ModeDense, nil)
	res := runCoordinator(t, f, BalanceShortestQueue)
	if res.Offered != 30 {
		t.Fatalf("Offered = %d, want 30", res.Offered)
	}
	if got := res.Completed + res.Dropped + res.Abandoned; got != res.Offered {
		t.Fatalf("Completed %d + Dropped %d + Abandoned %d = %d, want Offered %d",
			res.Completed, res.Dropped, res.Abandoned, got, res.Offered)
	}
	if got := res.RoutedKeyed + res.RoutedBalanced + res.Scattered; got != res.Offered {
		t.Fatalf("routing kinds sum to %d, want %d", got, res.Offered)
	}
	if res.Scattered != 6 {
		t.Fatalf("Scattered = %d, want 6 (every 5th of 30)", res.Scattered)
	}
	if res.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if res.MergedScalars <= 0 {
		t.Fatalf("MergedScalars = %v, want > 0 (Q6 revenue)", res.MergedScalars)
	}
	if uint64(res.Completed) != res.Latency.Count() {
		t.Fatalf("latency histogram has %d samples for %d completions", res.Latency.Count(), res.Completed)
	}
	routed := 0
	for _, st := range res.PerMachine {
		routed += st.Routed
	}
	// Each scatter contributes one routed entry per machine.
	want := res.RoutedKeyed + res.RoutedBalanced + res.Scattered*f.Machines()
	if routed != want {
		t.Fatalf("per-machine Routed sums to %d, want %d", routed, want)
	}
}

// TestCoordinatorBalancePolicies: unkeyed traffic spreads across
// machines under both policies.
func TestCoordinatorBalancePolicies(t *testing.T) {
	for _, policy := range []Policy{BalanceShortestQueue, BalanceWeighted} {
		f := testFleet(t, 2, workload.ModeDense, nil)
		c := &Coordinator{
			Fleet:       f,
			Process:     arrivals.NewPoisson(400, 11),
			Policy:      policy,
			MaxArrivals: 24,
			MaxSeconds:  120,
		}
		res := c.Run()
		if res.RoutedBalanced != 24 {
			t.Fatalf("%v: RoutedBalanced = %d, want 24", policy, res.RoutedBalanced)
		}
		for m, st := range res.PerMachine {
			if st.Routed == 0 {
				t.Fatalf("%v: machine %d received no traffic", policy, m)
			}
		}
	}
	t.Run("crash-plan", weightedUnderFaults)
}

// weightedUnderFaults: a fault plan does not switch the balance policy
// off. With machine 0 crashed for the whole run every
// unkeyed request, first send or resend, goes to the machine with the
// least load per allocated core among the healthy ones — recomputed here
// from the admission layers as each route event is published — and the
// run contains decisions where shortest-queue would have gone elsewhere.
func weightedUnderFaults(t *testing.T) {
	bus := obs.NewBus(0)
	f := faultedFleet(t, "crash m0 @0s", 1, bus)
	pressuredArbiter(t, f, 24)
	routes, discriminating := 0, 0
	bus.Subscribe(obs.KindRoute, func(e obs.Event) {
		routes++
		weighted, shortest := -1, -1
		var load, depth, cores [3]int
		for m, adm := range f.admissions {
			if adm.Down || f.Health().Dead(m) {
				continue
			}
			// The state pick saw: this request was not queued yet.
			depth[m], cores[m] = adm.QueueLen(), f.Rigs[m].AllocatedCores()
			if m == int(e.Machine) {
				depth[m]--
			}
			load[m] = depth[m] + adm.InFlight()
			if weighted < 0 || load[m]*cores[weighted] < load[weighted]*cores[m] {
				weighted = m
			}
			if shortest < 0 || depth[m] < depth[shortest] ||
				(depth[m] == depth[shortest] && adm.InFlight() < f.admissions[shortest].InFlight()) {
				shortest = m
			}
		}
		if int(e.Machine) != weighted {
			t.Errorf("route %d went to machine %d, weighted pick among healthy machines is %d (load %v, cores %v)",
				routes, e.Machine, weighted, load, cores)
		}
		if weighted != shortest {
			discriminating++
		}
	})
	c := pressuredCoordinator(f)
	c.Keys = nil
	c.Policy = BalanceWeighted
	res := c.Run()
	if res.PerMachine[0].Routed != 0 || res.Completed == 0 {
		t.Fatalf("crashed machine 0 was sent %d requests; %d completed", res.PerMachine[0].Routed, res.Completed)
	}
	if discriminating == 0 {
		t.Fatalf("none of %d routes tells weighted from shortest-queue", routes)
	}
}

// TestCoordinatorRoutingKindsCountShed: RoutedKeyed, RoutedBalanced and
// Scattered split Offered as requests are offered, so one shed at a full
// queue still counts under its kind.
func TestCoordinatorRoutingKindsCountShed(t *testing.T) {
	for _, kind := range trafficKinds[:2] { // keyed, unkeyed
		c := pressuredCoordinator(testFleet(t, 2, workload.ModeDense, nil))
		c.Keys = nil
		c.ScatterEvery = 5
		c.MaxInFlight, c.QueueCap = 1, 1
		kind.tune(c)
		res := c.Run()
		if res.Dropped == 0 {
			t.Fatalf("%s: nothing was shed at one-deep queues", kind.name)
		}
		if got := res.RoutedKeyed + res.RoutedBalanced + res.Scattered; got != res.Offered {
			t.Fatalf("%s: routing kinds sum to %d, want Offered %d (%d dropped)", kind.name, got, res.Offered, res.Dropped)
		}
	}
}

// TestCoordinatorRouteEvents: the coordinator publishes KindRoute with
// the target machine stamped.
func TestCoordinatorRouteEvents(t *testing.T) {
	bus := obs.NewBus(0)
	f := testFleet(t, 2, workload.ModeDense, bus)
	res := runCoordinator(t, f, BalanceShortestQueue)
	routes := bus.EventsOfKind(obs.KindRoute)
	want := res.RoutedKeyed + res.RoutedBalanced + res.Scattered*f.Machines()
	if len(routes) != want {
		t.Fatalf("%d route events, want %d", len(routes), want)
	}
	machines := map[int32]bool{}
	for _, e := range routes {
		machines[e.Machine] = true
		if e.Label == "" {
			t.Fatal("route event without a kind label")
		}
	}
	if len(machines) != f.Machines() {
		t.Fatalf("route events cover %d machines, want %d", len(machines), f.Machines())
	}
}

// pressuredCoordinator drives enough keyed load, with few server
// sessions, that queues build and the mechanisms' backlog clamp pushes
// per-machine demand up — the condition under which the cluster arbiter
// actually moves cores.
func pressuredCoordinator(f *Fleet) *Coordinator {
	return &Coordinator{
		Fleet:       f,
		Process:     arrivals.NewPoisson(5000, 11),
		Keys:        uniformKeys(f.Sharder),
		MaxInFlight: 2,
		MaxArrivals: 100,
		MaxSeconds:  120,
	}
}

// pressuredArbiter attaches an arbiter with a short cluster period so
// several rounds fire within the short pressured run.
func pressuredArbiter(t *testing.T, f *Fleet, budget int) *ClusterArbiter {
	t.Helper()
	topo := f.Rigs[0].Machine.Topology()
	ca, err := NewClusterArbiter(ClusterArbiterConfig{
		Fleet:          f,
		Budget:         budget,
		ControlPeriod:  topo.SecondsToCycles(1e-3),
		MigrateLatency: topo.SecondsToCycles(0.5e-3),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

// TestClusterArbiterBudget: under a budget below physical capacity the
// arbiter keeps the fleet within budget at every tick (held plus in
// transit), moves cores, and charges the migration latency for them.
func TestClusterArbiterBudget(t *testing.T) {
	f := testFleet(t, 2, workload.ModeDense, nil)
	budget := 12 // physical is 2 machines x 16 cores
	ca := pressuredArbiter(t, f, budget)
	pressuredCoordinator(f).Run()
	held := 0
	for _, n := range f.AllocatedCores() {
		held += n
	}
	if held+ca.InTransit() > budget {
		t.Fatalf("fleet holds %d cores + %d in transit over budget %d", held, ca.InTransit(), budget)
	}
	if ca.Rounds == 0 {
		t.Fatal("arbiter never ran")
	}
	if ca.MovedCores == 0 {
		t.Fatal("no cores moved under load")
	}
	if ca.ChargedCycles != uint64(ca.MovedCores)*ca.MigrateLatency() {
		t.Fatalf("ChargedCycles %d != MovedCores %d x latency %d",
			ca.ChargedCycles, ca.MovedCores, ca.MigrateLatency())
	}
	if len(ca.Events()) == 0 {
		t.Fatal("no rebalance events recorded")
	}
	sum := 0
	for _, g := range ca.Grants() {
		sum += g
	}
	if sum > budget {
		t.Fatalf("grants sum to %d over budget %d", sum, budget)
	}
}

// spinWork keeps a thread busy forever.
type spinWork struct{}

func (spinWork) Run(_ *sched.ExecContext, budget uint64) (uint64, bool, bool) {
	return budget, false, false
}

// TestClusterArbiterKeepsMarkingInSync: one machine saturated, one idle,
// under a budget below physical. After every tick — every rebalance round
// and every migration landing — each machine's net marking counts its
// cpuset and the fleet holds at most its budget; the saturated machine
// ends ahead.
func TestClusterArbiterKeepsMarkingInSync(t *testing.T) {
	f := testFleet(t, 2, workload.ModeDense, nil)
	budget := 12
	ca := pressuredArbiter(t, f, budget)
	for i := 0; i < 16; i++ {
		f.Rigs[0].Sched.Spawn(workload.DBMSPID, "spin", spinWork{})
	}
	for tick := 0; tick < 2000; tick++ {
		f.Tick()
		held := 0
		for m, r := range f.Rigs {
			if n := r.Mech.Net().NAlloc(); n != r.AllocatedCores() {
				t.Fatalf("tick %d, machine %d: net marking %d, cpuset holds %d cores", tick, m, n, r.AllocatedCores())
			}
			held += r.AllocatedCores()
		}
		if held+ca.InTransit() > budget {
			t.Fatalf("tick %d: fleet holds %d cores + %d in transit over budget %d", tick, held, ca.InTransit(), budget)
		}
	}
	if ca.MovedCores == 0 {
		t.Fatal("no cores moved under load")
	}
	if busy, idle := f.Rigs[0].AllocatedCores(), f.Rigs[1].AllocatedCores(); busy <= idle {
		t.Errorf("saturated machine holds %d cores, idle one %d", busy, idle)
	}
}

// TestClusterArbiterValidation: ModeOS fleets (no mechanism) and double
// attachment are rejected.
func TestClusterArbiterValidation(t *testing.T) {
	f := testFleet(t, 2, workload.ModeOS, nil)
	if _, err := NewClusterArbiter(ClusterArbiterConfig{Fleet: f}); err == nil {
		t.Fatal("ModeOS fleet accepted")
	}
	f2 := testFleet(t, 2, workload.ModeDense, nil)
	if _, err := NewClusterArbiter(ClusterArbiterConfig{Fleet: f2}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewClusterArbiter(ClusterArbiterConfig{Fleet: f2}); err == nil {
		t.Fatal("second arbiter accepted")
	}
	if _, err := NewClusterArbiter(ClusterArbiterConfig{Fleet: testFleet(t, 2, workload.ModeDense, nil), Budget: 1}); err == nil {
		t.Fatal("budget below per-machine floor accepted")
	}
}

// TestClusterRebalanceEvents: rebalances reach the bus with machine ids.
func TestClusterRebalanceEvents(t *testing.T) {
	bus := obs.NewBus(0)
	f := testFleet(t, 2, workload.ModeDense, bus)
	pressuredArbiter(t, f, 12)
	pressuredCoordinator(f).Run()
	evs := bus.EventsOfKind(obs.KindRebalance)
	if len(evs) == 0 {
		t.Fatal("no rebalance events on the bus")
	}
	for _, e := range evs {
		if e.Machine < 0 || int(e.Machine) >= f.Machines() {
			t.Fatalf("rebalance event for machine %d of %d", e.Machine, f.Machines())
		}
	}
}

// fleetRun is one full coordinator-over-arbitrated-fleet run, the unit
// the determinism tests compare.
func fleetRun(t *testing.T) Result {
	t.Helper()
	f := testFleet(t, 2, workload.ModeDense, nil)
	pressuredArbiter(t, f, 12)
	c := pressuredCoordinator(f)
	c.Policy = BalanceWeighted
	c.ScatterEvery = 7
	return c.Run()
}

// TestFleetDeterminism: a fleet run is bit-identical across repeats.
func TestFleetDeterminism(t *testing.T) {
	a := fleetRun(t)
	b := fleetRun(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeat run diverged:\n%+v\nvs\n%+v", a, b)
	}
}
