package cluster

import (
	"reflect"
	"testing"

	"elasticore/internal/arrivals"
	"elasticore/internal/db"
	"elasticore/internal/faults"
	"elasticore/internal/obs"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// faults_test.go covers the fault-injection stack end to end: crash and
// recovery through the fleet, health detection and shard re-assignment,
// coordinator retry/hedge/failover, and the determinism contract under
// failures.

// faultedFleet builds a 3-machine replicated fleet with a crash window
// on machine 1 and a fast-reacting health monitor.
func faultedFleet(t *testing.T, spec string, replicas int, bus *obs.Bus) *Fleet {
	t.Helper()
	plan, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(Options{
		Machines: 3,
		Shards:   6,
		SF:       0.002,
		Seed:     7,
		Mode:     workload.ModeDense,
		Replicas: replicas,
		Faults:   plan,
		Bus:      bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo := f.Rigs[0].Machine.Topology()
	if _, err := NewHealthMonitor(HealthConfig{
		Fleet:           f,
		HeartbeatEvery:  topo.SecondsToCycles(1e-3),
		TransferLatency: topo.SecondsToCycles(5e-3),
		BrownoutCap:     8,
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

// faultedCoordinator drives keyed traffic with the full FT kit enabled.
func faultedCoordinator(f *Fleet) *Coordinator {
	return &Coordinator{
		Fleet:             f,
		Process:           arrivals.NewPoisson(400, 11),
		Keys:              uniformKeys(f.Sharder),
		TimeoutSeconds:    5e-3,
		BackoffSeconds:    2e-3,
		MaxRetries:        5,
		HedgeAfterSeconds: 3e-3,
		MaxArrivals:       60,
		MaxSeconds:        120,
	}
}

// TestFleetCrashRecover: a crash window aborts the victim's work, the
// health monitor declares it dead and re-homes its shards onto the
// surviving replica, traffic fails over, and recovery re-homes them
// back — with every request accounted for.
func TestFleetCrashRecover(t *testing.T) {
	bus := obs.NewBus(0)
	f := faultedFleet(t, "crash m1 @0.02s for 0.06s", 2, bus)
	res := faultedCoordinator(f).Run()

	h := f.Health()
	if h.Deaths != 1 || h.Recoveries != 1 {
		t.Fatalf("Deaths=%d Recoveries=%d, want 1/1", h.Deaths, h.Recoveries)
	}
	if h.Reassigned == 0 {
		t.Fatal("no shard re-assignments landed")
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed through the fault")
	}
	if res.Failovers == 0 && res.Hedged == 0 && res.Retried == 0 {
		t.Fatal("the fault window triggered no fault-tolerance actions")
	}
	if got := res.Completed + res.Dropped + res.Failed + res.Abandoned; got != res.Offered {
		t.Fatalf("accounting: %d+%d+%d+%d = %d, want Offered %d",
			res.Completed, res.Dropped, res.Failed, res.Abandoned, got, res.Offered)
	}

	labels := map[string]bool{}
	for _, e := range bus.EventsOfKind(obs.KindFault) {
		labels[e.Label] = true
	}
	if !labels["crash"] || !labels["recover"] {
		t.Fatalf("fault event labels %v, want crash and recover", labels)
	}
	reassign := map[string]int{}
	for _, e := range bus.EventsOfKind(obs.KindReassign) {
		reassign[e.Label]++
	}
	if reassign["begin"] == 0 || reassign["done"] == 0 {
		t.Fatalf("reassign events %v, want begin and done", reassign)
	}
	if len(bus.EventsOfKind(obs.KindHeartbeat)) == 0 {
		t.Fatal("no heartbeats on the bus with health enabled")
	}
	// Post-recovery the primaries must be back home.
	for shard := 0; shard < f.Sharder.Shards(); shard++ {
		if f.Sharder.Owner(shard) != f.Sharder.Home(shard) {
			t.Fatalf("shard %d still re-homed on machine %d after recovery",
				shard, f.Sharder.Owner(shard))
		}
	}
}

// TestCoordinatorZeroAdmission: with every machine crashed for the whole
// run, nothing is ever admitted — every request fails or is shed, the
// latency histogram stays empty, and the run still terminates.
func TestCoordinatorZeroAdmission(t *testing.T) {
	f := faultedFleet(t, "crash m0 @0s; crash m1 @0s; crash m2 @0s", 2, nil)
	c := faultedCoordinator(f)
	c.MaxArrivals = 10
	c.MaxSeconds = 5
	res := c.Run()
	if res.Completed != 0 {
		t.Fatalf("%d completions on an all-crashed fleet", res.Completed)
	}
	if res.Latency.Count() != 0 {
		t.Fatalf("latency histogram has %d samples with zero admissions", res.Latency.Count())
	}
	if res.Failed+res.Dropped+res.Abandoned != res.Offered {
		t.Fatalf("zero-admission accounting: Failed %d + Dropped %d + Abandoned %d != Offered %d",
			res.Failed, res.Dropped, res.Abandoned, res.Offered)
	}
	if res.Failed == 0 {
		t.Fatal("no request exhausted its retries against a dead fleet")
	}
}

// TestScatterShedsWholeUnderBrownout: while shard transfers are in flight
// the health monitor caps every admission queue below QueueCap, and a
// scatter that meets a queue at that cap is dropped whole like one that
// meets a full queue — not half-sent, left to hang until the deadline and
// counted as routed to a machine that refused it.
func TestScatterShedsWholeUnderBrownout(t *testing.T) {
	f := faultedFleet(t, "crash m1 @0.01s for 0.02s", 2, nil)
	browned := 0
	c := &Coordinator{
		Fleet:        f,
		Process:      arrivals.NewPoisson(3000, 11),
		ScatterEvery: 1,
		MaxInFlight:  1,
		QueueCap:     1024, // the default, spelled: Run leaves c as it is
		MaxArrivals:  240,
		MaxSeconds:   120,
		OnOutcome: func(_, _ uint64, ok bool) {
			for _, adm := range f.admissions {
				if ok || adm.Down || adm.BrownoutCap == 0 {
					return
				}
			}
			browned++ // refused with every machine up: only the brownout cap can have done it
		},
	}
	res := c.Run()
	for m, st := range res.PerMachine {
		if st.PeakQueueDepth >= c.QueueCap {
			t.Fatalf("machine %d's queue reached QueueCap %d: drops are not the brownout's alone", m, c.QueueCap)
		}
		if st.Dropped != 0 {
			t.Fatalf("machine %d refused %d sub-queries of scatters that were sent", m, st.Dropped)
		}
	}
	if res.Abandoned != 0 {
		t.Fatalf("%d scatters never resolved (completed %d, dropped %d, failed %d of %d)",
			res.Abandoned, res.Completed, res.Dropped, res.Failed, res.Offered)
	}
	if browned == 0 {
		t.Fatal("no scatter met a browned-out queue: the run does not exercise the cap")
	}
}

// TestFleetReplicasValidation: the replica degree must fit the fleet.
func TestFleetReplicasValidation(t *testing.T) {
	_, err := NewFleet(Options{Machines: 2, Shards: 4, SF: 0.002, Replicas: 3})
	if err == nil {
		t.Fatal("replicas > machines accepted")
	}
	if _, err := NewFleet(Options{Machines: 2, Shards: 4, SF: 0.002, Replicas: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestFleetFaultValidation: a plan referencing machines or cores outside
// the fleet is rejected at construction.
func TestFleetFaultValidation(t *testing.T) {
	plan, err := faults.Parse("crash m9 @1s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFleet(Options{Machines: 3, Shards: 6, SF: 0.002, Faults: plan}); err == nil {
		t.Fatal("plan crashing machine 9 accepted by a 3-machine fleet")
	}
}

// faultedRun is one crash-and-recover coordinator run, the unit the
// faulted determinism test compares.
func faultedRun(t *testing.T) Result {
	t.Helper()
	f := faultedFleet(t, "crash m1 @0.02s for 0.06s; slow m2 c0-3 x4 @0.01s for 0.1s", 2, nil)
	return faultedCoordinator(f).Run()
}

// TestFleetFaultDeterminism: a faulted run — crash, recovery, slow
// cores, retries, hedges and re-assignment — is bit-identical across
// repeats.
func TestFleetFaultDeterminism(t *testing.T) {
	a := faultedRun(t)
	b := faultedRun(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeat faulted run diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestWireDeliveryQueuesBehindArrivals: a send a delayed link lands in the
// same pass as a new arrival queues behind the arrival's direct sends,
// because the open loop runs the coordinator's wire deliveries after the
// arrivals. A keyed request sent over a 1 ms link to machine 0 lands in the
// pass in which a scatter, whose sub-queries take no link, fans out.
func TestWireDeliveryQueuesBehindArrivals(t *testing.T) {
	plan, err := faults.Parse("link m0 +1ms @0s")
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus(0)
	f, err := NewFleet(Options{Machines: 2, SF: 0.002, Seed: 7, Mode: workload.ModeDense, Faults: plan, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	key := uint64(0)
	for f.Sharder.Owner(f.Sharder.Shard(key)) != 0 {
		key++
	}
	// The keyed request is sent at 0.1 ms, after the link fault applies,
	// and lands at 1.1 ms; the scatter arrives a quarter quantum earlier.
	q := f.Rigs[0].Machine.Topology().CyclesToSeconds(f.Rigs[0].Sched.Quantum())
	times := fixedArrivals{0.1e-3, 1.1e-3 - q/4}
	c := &Coordinator{Fleet: f, Process: &times, Keys: func(int) uint64 { return key }, ScatterEvery: 2, MaxSeconds: 1}
	if res := c.Run(); res.Completed != 2 {
		t.Fatalf("completed %d of 2", res.Completed)
	}
	var routes []obs.Event
	for _, e := range bus.Events() {
		if e.Kind == obs.KindRoute && e.Machine == 0 {
			routes = append(routes, e)
		}
	}
	if len(routes) != 2 || routes[0].Now != routes[1].Now {
		t.Fatalf("machine 0 saw %d routes, want 2 in one pass: %+v", len(routes), routes)
	}
	if routes[0].Label != labelScatter || routes[1].Label != labelKeyed {
		t.Fatalf("machine 0 queued %q then %q, want the scatter's sub-query ahead of the delayed keyed request",
			routes[0].Label, routes[1].Label)
	}
}

// TestHealthAdvanceMatchesTicks: a health-monitored fleet stretches its
// epochs up to HealthMonitor.NextAt — the next heartbeat, death deadline or
// transfer landing — and an Advance over them matches a Tick-by-Tick twin
// exactly through a crash, its detection, the shard transfers, the
// recovery and the transfers back: every bus event, the deaths,
// recoveries, landed transfers and their cycles, every machine's counters
// and every admission's accounting. Under ModeOS no mechanism bounds a
// stretch, so the health monitor's own deadlines do; under ModeDense the
// control periods cut in as well. A transfer takes 5.3 ms, so it lands
// between heartbeats.
func TestHealthAdvanceMatchesTicks(t *testing.T) {
	for _, mode := range []workload.Mode{workload.ModeOS, workload.ModeDense} {
		build := func() (*Fleet, *obs.Bus, []*workload.Admission) {
			bus := obs.NewBus(0)
			plan, err := faults.Parse("crash m1 @2ms for 10ms")
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFleet(Options{Machines: 3, Shards: 6, SF: 0.002, Seed: 7, Mode: mode, Replicas: 2, Faults: plan, Bus: bus})
			if err != nil {
				t.Fatal(err)
			}
			topo := f.Rigs[0].Machine.Topology()
			if _, err := NewHealthMonitor(HealthConfig{
				Fleet:           f,
				HeartbeatEvery:  topo.SecondsToCycles(1e-3),
				TransferLatency: topo.SecondsToCycles(5.3e-3),
				BrownoutCap:     8,
			}); err != nil {
				t.Fatal(err)
			}
			adms := make([]*workload.Admission, len(f.Rigs))
			for m, r := range f.Rigs {
				adms[m] = &workload.Admission{Rig: r, MaxInFlight: 4}
				f.RegisterAdmission(m, adms[m])
				for k := 0; k < 12; k++ {
					adms[m].Offer(0, 0, int64(m*100+k))
				}
				adms[m].Fill(0, func(k int, tag int64) *db.Plan {
					return tpch.Build(1+int(tag)%22, uint64(tag)+1)
				})
			}
			return f, bus, adms
		}
		ref, refBus, refAdms := build()
		quanta := int(ref.Rigs[0].Machine.Topology().SecondsToCycles(40e-3) / ref.Rigs[0].Sched.Quantum())
		for range quanta {
			ref.Tick()
		}
		f, bus, adms := build()
		f.Advance(quanta)
		label := mode.String()
		diffObservables(t, label, stretchObservables(ref, refBus), stretchObservables(f, bus))
		wh, gh := ref.health, f.health
		if wh.Deaths == 0 || wh.Recoveries == 0 || wh.Reassigned == 0 {
			t.Fatalf("%s: deaths %d, recoveries %d, transfers %d: the crash was never detected and repaired", label, wh.Deaths, wh.Recoveries, wh.Reassigned)
		}
		if gh.Deaths != wh.Deaths || gh.Recoveries != wh.Recoveries || gh.Reassigned != wh.Reassigned || gh.TransferCycles != wh.TransferCycles {
			t.Fatalf("%s: deaths %d, recoveries %d, transfers %d (%d cycles); Tick by Tick %d, %d, %d (%d)",
				label, gh.Deaths, gh.Recoveries, gh.Reassigned, gh.TransferCycles, wh.Deaths, wh.Recoveries, wh.Reassigned, wh.TransferCycles)
		}
		for m := range adms {
			a, w := adms[m], refAdms[m]
			if a.Admitted != w.Admitted || a.Completed != w.Completed || a.Failed != w.Failed || a.InFlight() != w.InFlight() {
				t.Fatalf("%s: machine %d admission: admitted %d completed %d failed %d in flight %d; Tick by Tick %d %d %d %d",
					label, m, a.Admitted, a.Completed, a.Failed, a.InFlight(), w.Admitted, w.Completed, w.Failed, w.InFlight())
			}
		}
		if st := f.EngineStats(); st.Quanta != uint64(quanta) || st.Epochs*2 > st.Quanta {
			t.Fatalf("%s: engine stats %+v over %d quanta: the health-monitored fleet did not stretch its epochs", label, st, quanta)
		} else {
			t.Logf("%s: %d quanta in %d epochs", label, st.Quanta, st.Epochs)
		}
	}
}
