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

// runCoordinator drives a fixed workload over the fleet, routed by keys.
func runCoordinator(t *testing.T, f *Fleet, keys func(k int) uint64) Result {
	t.Helper()
	c := &Coordinator{
		Fleet:        f,
		Process:      arrivals.NewPoisson(400, 11),
		Keys:         keys,
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
// machine, and merged scalars flow through — with a key stream, and with
// Keys left nil, which routes request k by the key k itself.
func TestCoordinatorAccounting(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys func(f *Fleet) func(k int) uint64
	}{
		{"uniform", func(f *Fleet) func(k int) uint64 { return uniformKeys(f.Sharder) }},
		{"nil", func(*Fleet) func(k int) uint64 { return nil }},
	} {
		f := testFleet(t, 2, workload.ModeDense, nil)
		res := runCoordinator(t, f, tc.keys(f))
		if res.Offered != 30 {
			t.Fatalf("%s: Offered = %d, want 30", tc.name, res.Offered)
		}
		if got := res.Completed + res.Dropped + res.Abandoned; got != res.Offered {
			t.Fatalf("%s: Completed %d + Dropped %d + Abandoned %d = %d, want Offered %d",
				tc.name, res.Completed, res.Dropped, res.Abandoned, got, res.Offered)
		}
		if got := res.RoutedKeyed + res.Scattered; got != res.Offered {
			t.Fatalf("%s: routing kinds sum to %d, want %d", tc.name, got, res.Offered)
		}
		if res.Scattered != 6 {
			t.Fatalf("%s: Scattered = %d, want 6 (every 5th of 30)", tc.name, res.Scattered)
		}
		if res.Completed == 0 {
			t.Fatalf("%s: no requests completed", tc.name)
		}
		if res.MergedScalars <= 0 {
			t.Fatalf("%s: MergedScalars = %v, want > 0 (Q6 revenue)", tc.name, res.MergedScalars)
		}
		if uint64(res.Completed) != res.Latency.Count() {
			t.Fatalf("%s: latency histogram has %d samples for %d completions", tc.name, res.Latency.Count(), res.Completed)
		}
		routed := 0
		for _, st := range res.PerMachine {
			routed += st.Routed
		}
		// Each scatter contributes one routed entry per machine.
		want := res.RoutedKeyed + res.Scattered*f.Machines()
		if routed != want {
			t.Fatalf("%s: per-machine Routed sums to %d, want %d", tc.name, routed, want)
		}
		if tc.name != "nil" {
			continue
		}
		byKey := runCoordinator(t, testFleet(t, 2, workload.ModeDense, nil), func(k int) uint64 { return uint64(k) })
		if !reflect.DeepEqual(res, byKey) {
			t.Fatalf("nil Keys diverged from keys k:\n%+v\nwant\n%+v", res, byKey)
		}
	}
}

// TestCoordinatorRoutingKindsCountShed: RoutedKeyed and Scattered split
// Offered as requests are offered, so one shed at a full queue still
// counts under its kind.
func TestCoordinatorRoutingKindsCountShed(t *testing.T) {
	for _, kind := range trafficKinds[:2] { // keyed, nil keys
		c := pressuredCoordinator(testFleet(t, 2, workload.ModeDense, nil))
		c.Keys = nil
		c.ScatterEvery = 5
		c.MaxInFlight, c.QueueCap = 1, 1
		kind.tune(c)
		res := c.Run()
		if res.Dropped == 0 {
			t.Fatalf("%s: nothing was shed at one-deep queues", kind.name)
		}
		if got := res.RoutedKeyed + res.Scattered; got != res.Offered {
			t.Fatalf("%s: routing kinds sum to %d, want Offered %d (%d dropped)", kind.name, got, res.Offered, res.Dropped)
		}
	}
}

// TestCoordinatorRouteEvents: the coordinator publishes KindRoute with
// the target machine stamped.
func TestCoordinatorRouteEvents(t *testing.T) {
	bus := obs.NewBus(0)
	f := testFleet(t, 2, workload.ModeDense, bus)
	res := runCoordinator(t, f, uniformKeys(f.Sharder))
	routes := bus.EventsOfKind(obs.KindRoute)
	want := res.RoutedKeyed + res.Scattered*f.Machines()
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

// TestZeroConfigReadsTimebase: the cluster arbiter's zero period and
// migration latency, and the health monitor's zero heartbeat and transfer
// latency, are the first machine's timebase entries.
func TestZeroConfigReadsTimebase(t *testing.T) {
	f, err := NewFleet(Options{Machines: 2, SF: 0.002, Seed: 7, Mode: workload.ModeDense})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := NewClusterArbiter(ClusterArbiterConfig{Fleet: f})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHealthMonitor(HealthConfig{Fleet: f})
	if err != nil {
		t.Fatal(err)
	}
	tb := f.Rigs[0].Machine.Timebase()
	for _, row := range []struct {
		name      string
		got, want uint64
	}{
		{"arbiter period", ca.period, tb.FleetPeriod},
		{"migrate latency", ca.migrate, tb.Migrate},
		{"heartbeat", h.every, tb.Heartbeat},
		{"transfer latency", h.transferLat, tb.Transfer},
	} {
		if row.got != row.want {
			t.Errorf("%s %d, want the timebase's %d", row.name, row.got, row.want)
		}
	}
}
