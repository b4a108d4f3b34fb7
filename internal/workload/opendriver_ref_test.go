package workload

import (
	"fmt"
	"reflect"
	"testing"

	"elasticore/internal/arrivals"
	"elasticore/internal/db"
	"elasticore/internal/elastic"
	"elasticore/internal/hashmix"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
	"elasticore/internal/tpch"
)

// opendriver_ref_test.go keeps the per-quantum loops OpenDriver.Run and
// Rig.Tick were before they became event-driven, as the oracles the
// jumping ones must be indistinguishable from.

// fixedArrivals replays a sorted list of arrival times (seconds) and then
// ends, for runs that need arrivals at exact instants.
type fixedArrivals []float64

func (a *fixedArrivals) Next() (float64, bool) {
	if len(*a) == 0 {
		return 0, false
	}
	t := (*a)[0]
	*a = (*a)[1:]
	return t, true
}

// refTick is Rig.Tick before Rig.Advance: one real scheduler Tick (never
// the idle fast-forward), then the due checks. A due mechanism evaluates
// through Step and a due probe through Sample, so the reference never
// settles a period by replay nor a sample as a run.
func refTick(r *Rig) {
	r.Sched.Tick()
	if r.Mech != nil && r.Mech.Due() {
		r.Mech.Step()
	}
	if r.Probe != nil && r.Machine.Now() >= r.Probe.NextAt() {
		r.Probe.Sample()
	}
}

// refOpenRun is OpenDriver.Run before the jump: every pass over the
// admission layer, both float-seconds tests and one refTick per quantum.
func refOpenRun(d *OpenDriver, plan PlanAt) OpenResult {
	if d.MaxSeconds == 0 {
		d.MaxSeconds = 600
	}
	r := d.Rig
	topo := r.Machine.Topology()

	var res OpenResult
	d.adm = Admission{Rig: r, MaxInFlight: d.MaxInFlight, QueueCap: d.QueueCap}
	adm := &d.adm
	adm.normalize()

	d.winLatency.Reset()
	winCompleted := 0
	adm.OnComplete = func(_ int64, _ *db.Query, total, _ uint64) {
		d.winLatency.Record(total)
		winCompleted++
	}
	if r.Mech != nil && !d.DisableBacklog {
		r.Mech.SetBacklog(adm.QueueLen)
		defer r.Mech.SetBacklog(nil)
	}
	if r.Probe != nil {
		r.Probe.SetLatency(&adm.Latency)
		defer r.Probe.SetLatency(nil)
	}

	startSnap := r.Machine.Snapshot()
	startStats := r.Sched.Stats()
	startCycle := r.Machine.Now()
	startTime := r.Machine.NowSeconds()
	deadline := startTime + d.MaxSeconds

	pump := newArrivalPump(d.Process, topo, startCycle, d.MaxArrivals)
	offer := func(nowC, at uint64) { adm.Offer(nowC, at, 0) }
	lastSample := startTime
	planByIndex := func(k int, _ int64) *db.Plan { return plan(k) }

	for {
		nowC := r.Machine.Now()
		adm.Collect(nowC)
		pump.Due(nowC, offer)
		adm.Fill(nowC, planByIndex)
		adm.UpdatePeaks()

		now := r.Machine.NowSeconds()
		if d.SampleEvery > 0 && now-lastSample >= d.SampleEvery {
			res.Samples = append(res.Samples, OpenSample{
				AtSeconds:  now - startTime,
				QueueDepth: adm.QueueLen(),
				InFlight:   adm.InFlight(),
				Allocated:  r.AllocatedCores(),
				Completed:  winCompleted,
				P99Cycles:  d.winLatency.P99(),
			})
			d.winLatency.Reset()
			winCompleted = 0
			lastSample = now
		}
		if !pump.More() && adm.Idle() {
			break
		}
		if now >= deadline {
			break
		}
		refTick(r)
	}

	endSnap := r.Machine.Snapshot()
	res.Offered = adm.Offered
	res.Admitted = adm.Admitted
	res.Dropped = adm.Dropped
	res.Completed = adm.Completed
	res.Abandoned = adm.QueueLen()
	res.QueueWait = adm.QueueWait
	res.Service = adm.Service
	res.Latency = adm.Latency
	res.PeakQueueDepth = adm.PeakQueueDepth
	res.PeakInFlight = adm.PeakInFlight
	res.ElapsedSeconds = r.Machine.NowSeconds() - startTime
	res.Window = endSnap.Sub(startSnap)
	res.Sched = schedDelta(startStats, r.Sched.Stats())
	if res.ElapsedSeconds > 0 {
		res.Throughput = float64(res.Completed) / res.ElapsedSeconds
	}
	r.Engine.Drain()
	return res
}

// openScenario is one open-loop phase of the jump differential.
type openScenario struct {
	name string
	// probeQuanta is the probe period in quanta (the control period is 5).
	probeQuanta uint64
	// tune sets up the driver for a seed; the rig is lit and probed.
	tune func(d *OpenDriver, seed uint64)
	// failAt, when positive, crashes the machine under the admission as
	// the failAt-th query is planned: FailAll turns every running query
	// (a long Q1 each, so that they outlive the Q6 planned here) into a
	// zombie no requester waits on, which only Drained knows about.
	failAt int
	// saturated scenarios keep the machine busy: they need not jump.
	saturated bool
	// check asserts that the run exercised what the scenario is for.
	check func(t *testing.T, res OpenResult)
}

var openScenarios = []openScenario{
	{
		name:        "mmpp",
		probeQuanta: 20,
		tune: func(d *OpenDriver, seed uint64) {
			d.Process = arrivals.NewMMPP(30, 1200, 0.03, 0.008, seed)
			d.MaxSeconds = 0.2
		},
	},
	{
		name:        "poisson",
		probeQuanta: 5,
		tune: func(d *OpenDriver, seed uint64) {
			d.Process = arrivals.NewPoisson(250, seed)
			d.MaxArrivals = 40
		},
	},
	{
		// The cap falls inside a burst: the queue is still full of the
		// burst's arrivals when the stream ends, and the tail drains with
		// no arrival left to bound a jump.
		name:        "cap-mid-burst",
		probeQuanta: 20,
		saturated:   true,
		tune: func(d *OpenDriver, seed uint64) {
			d.Process = arrivals.NewMMPP(2000, 4000, 0.05, 0.05, seed)
			d.MaxArrivals = 30
			d.MaxInFlight = 4
		},
		check: func(t *testing.T, res OpenResult) {
			if res.Offered != 30 || res.PeakQueueDepth == 0 {
				t.Fatalf("offered %d with peak queue %d, want the cap of 30 reached under backlog", res.Offered, res.PeakQueueDepth)
			}
		},
	},
	{
		name:        "deadline-cuts",
		probeQuanta: 20,
		saturated:   true,
		tune: func(d *OpenDriver, seed uint64) {
			d.Process = arrivals.NewPoisson(1500, seed)
			d.MaxSeconds = 0.0203 // not a multiple of the 50 us quantum
		},
		check: func(t *testing.T, res OpenResult) {
			if res.Admitted <= res.Completed || res.ElapsedSeconds < 0.0203 {
				t.Fatalf("admitted %d, completed %d after %v s: the deadline cut nothing in flight", res.Admitted, res.Completed, res.ElapsedSeconds)
			}
		},
	},
	{
		// 0.37 ms is 7.4 quanta: sample boundaries fall between control
		// periods and inside idle gaps a jump would otherwise cross.
		name:        "sample-every",
		probeQuanta: 20,
		tune: func(d *OpenDriver, seed uint64) {
			d.Process = arrivals.NewMMPP(40, 900, 0.03, 0.01, seed)
			d.MaxSeconds = 0.15
			d.SampleEvery = 0.37e-3
		},
		check: func(t *testing.T, res OpenResult) {
			if len(res.Samples) < 300 {
				t.Fatalf("%d timeline samples, want one per 0.37 ms of 0.15 s", len(res.Samples))
			}
		},
	},
	{
		name:        "probe-coprime",
		probeQuanta: 7,
		tune: func(d *OpenDriver, seed uint64) {
			d.Process = arrivals.NewPoisson(120, seed)
			d.MaxSeconds = 0.15
		},
	},
	{
		// A probe twice per control period's five quanta: a quiet probe
		// left out of a stretch has samples due before the barrier at
		// which the releasing mechanism resizes the cpuset it reads.
		name:        "probe-fast",
		probeQuanta: 2,
		tune: func(d *OpenDriver, seed uint64) {
			d.Process = arrivals.NewMMPP(30, 1200, 0.03, 0.008, seed)
			d.MaxSeconds = 0.1
		},
	},
	{
		name:        "no-backlog",
		probeQuanta: 20,
		tune: func(d *OpenDriver, seed uint64) {
			d.Process = arrivals.NewMMPP(30, 1200, 0.03, 0.008, seed)
			d.MaxSeconds = 0.15
			d.DisableBacklog = true
		},
	},
	{
		// Six queries arrive together and the machine "crashes" as the
		// sixth is planned. Nothing simulated depends on when a zombie's
		// session is released, so the run records it: a driver that jumps
		// on Idle holds the finished zombies until the next arrival.
		name:        "zombies",
		probeQuanta: 20,
		failAt:      6,
		tune: func(d *OpenDriver, seed uint64) {
			times := []float64{0, 0, 0, 0, 0, 0}
			for k := 1; k <= 8; k++ {
				times = append(times, float64(k)*12e-3+float64(seed%5)*1e-4)
			}
			d.Process = (*fixedArrivals)(&times)
		},
	},
}

// openObservables is everything a phase leaves behind.
type openObservables struct {
	Result      OpenResult
	Transitions []elastic.TransitionEvent
	Probe       []obs.Snapshot
	Events      []obs.Event
	Machine     numa.Counters
	Stats       sched.Stats
	Now         uint64
	Failed      int
	IdleSkipped uint64
	// TokenFlows counts the mechanism's control periods, Replayed those it
	// settled at its quiet fixed point; Settled counts the probe samples
	// settled at the probe's.
	TokenFlows, Replayed, Settled uint64
	// Zombies is the number of aborted queries still holding a session at
	// each control step.
	Zombies []int
}

// run drives the scenario on a fresh lit, probed adaptive rig through the
// given driver loop.
func (sc openScenario) run(t *testing.T, seed uint64, loop func(*OpenDriver, PlanAt) OpenResult) openObservables {
	t.Helper()
	bus := obs.NewBus(1 << 18)
	r, err := NewRig(Options{SF: 0.002, Seed: 1, Mode: ModeAdaptive, Strategy: elastic.HTIMCStrategy{}, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	r.EnableProbe(sc.probeQuanta * r.Sched.Quantum())
	d := &OpenDriver{Rig: r, MaxInFlight: 8, QueueCap: 16}
	sc.tune(d, seed)
	var zombies []int
	bus.Subscribe(obs.KindTransition, func(obs.Event) { zombies = append(zombies, len(d.adm.zombies)) })
	res := loop(d, func(k int) *db.Plan {
		if k+1 < sc.failAt {
			return tpch.Build(1, seed+uint64(k))
		}
		if k+1 == sc.failAt {
			d.adm.FailAll()
		}
		return tpch.BuildQ6(seed*7919 + uint64(k) + 1)
	})
	if bus.Dropped() > 0 {
		t.Fatalf("%s: the bus ring dropped %d events", sc.name, bus.Dropped())
	}
	return openObservables{
		Result:      res,
		Transitions: r.Mech.Events(),
		Probe:       r.Probe.Samples(),
		Events:      bus.Events(),
		Machine:     r.Machine.Snapshot(),
		Stats:       r.Sched.Stats(),
		Now:         r.Machine.Now(),
		Failed:      d.adm.Failed,
		IdleSkipped: r.Sched.IdleSkipped(),
		TokenFlows:  r.Mech.TokenFlows,
		Replayed:    r.Mech.Replayed,
		Settled:     r.Probe.Settled,
		Zombies:     zombies,
	}
}

// TestOpenDriverJumpMatchesTickLoop: the open-loop driver that jumps to
// its next event through Rig.Advance matches refOpenRun — one pass and
// one real Tick per quantum — in every observable: the result with its
// three histograms and timeline samples, the mechanism's transitions, the
// probe's snapshots, the bus event stream, the machine counters and the
// scheduler stats.
func TestOpenDriverJumpMatchesTickLoop(t *testing.T) {
	for _, sc := range openScenarios {
		t.Run(sc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				want := sc.run(t, seed, refOpenRun)
				if want.IdleSkipped != 0 || want.Replayed != 0 || want.Settled != 0 {
					t.Fatalf("seed %d: the reference skipped %d quanta, replayed %d periods and settled %d samples",
						seed, want.IdleSkipped, want.Replayed, want.Settled)
				}
				if want.Result.Completed == 0 || len(want.Transitions) == 0 || len(want.Probe) == 0 {
					t.Fatalf("seed %d: reference completed %d queries with %d transitions and %d probe samples",
						seed, want.Result.Completed, len(want.Transitions), len(want.Probe))
				}
				if sc.failAt > 0 && want.Failed == 0 {
					t.Fatalf("seed %d: the crash aborted nothing", seed)
				}
				if sc.check != nil {
					sc.check(t, want.Result)
				}
				got := sc.run(t, seed, (*OpenDriver).Run)
				// OpenResult's conservation law: every arrival was admitted,
				// dropped or abandoned in the queue, and only admitted
				// queries complete.
				if r := got.Result; r.Offered != r.Admitted+r.Dropped+r.Abandoned || r.Completed > r.Admitted {
					t.Errorf("seed %d: offered %d != admitted %d + dropped %d + abandoned %d, or completed %d > admitted",
						seed, r.Offered, r.Admitted, r.Dropped, r.Abandoned, r.Completed)
				}
				if !sc.saturated && (4*got.IdleSkipped < got.Stats.TicksRun || got.Replayed == 0 || got.Settled == 0) {
					t.Errorf("seed %d: %d of %d quanta skipped, %d of %d periods replayed and %d of %d samples settled — the driver hardly jumped",
						seed, got.IdleSkipped, got.Stats.TicksRun, got.Replayed, got.TokenFlows, got.Settled, len(got.Probe))
				}
				t.Logf("seed %d: replayed %d of %d periods, settled %d of %d samples", seed, got.Replayed, got.TokenFlows, got.Settled, len(got.Probe))
				got.IdleSkipped, got.Replayed, got.Settled = 0, 0, 0
				diffOpen(t, fmt.Sprintf("%s seed %d", sc.name, seed), want, got)
			}
		})
	}
}

// diffOpen fails with the first observable in which two runs differ.
func diffOpen(t *testing.T, label string, want, got openObservables) {
	t.Helper()
	if got.Now != want.Now {
		t.Fatalf("%s: clock ended at %d, want %d", label, got.Now, want.Now)
	}
	if !reflect.DeepEqual(got.Result.Samples, want.Result.Samples) {
		t.Fatalf("%s: timeline samples diverged: %d vs %d", label, len(got.Result.Samples), len(want.Result.Samples))
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		g, w := got.Result, want.Result
		t.Fatalf("%s: results diverged: offered %d/%d admitted %d/%d completed %d/%d dropped %d/%d elapsed %v/%v sched %+v/%+v",
			label, g.Offered, w.Offered, g.Admitted, w.Admitted, g.Completed, w.Completed, g.Dropped, w.Dropped,
			g.ElapsedSeconds, w.ElapsedSeconds, g.Sched, w.Sched)
	}
	if !reflect.DeepEqual(got.Transitions, want.Transitions) || got.TokenFlows != want.TokenFlows {
		t.Fatalf("%s: mechanism transitions diverged: %d vs %d (%d vs %d periods)", label,
			len(got.Transitions), len(want.Transitions), got.TokenFlows, want.TokenFlows)
	}
	if !reflect.DeepEqual(got.Probe, want.Probe) {
		t.Fatalf("%s: probe samples diverged: %d vs %d", label, len(got.Probe), len(want.Probe))
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("%s: bus events diverged: %d vs %d", label, len(got.Events), len(want.Events))
	}
	if !reflect.DeepEqual(got.Machine, want.Machine) {
		t.Fatalf("%s: machine counters diverged", label)
	}
	if !reflect.DeepEqual(got.Zombies, want.Zombies) {
		t.Fatalf("%s: zombie sessions were released at different control steps", label)
	}
	if got.Stats != want.Stats || got.Failed != want.Failed {
		t.Fatalf("%s: scheduler stats %+v (failed %d), want %+v (failed %d)", label, got.Stats, got.Failed, want.Stats, want.Failed)
	}
}

// TestRigAdvanceMatchesTicks: Advance(n) leaves a rig where n reference
// Ticks leave it, at 300 random barriers between which queries are
// submitted (idle to busy) and finish mid-stretch (busy to idle), with a
// probe period coprime to the control period.
func TestRigAdvanceMatchesTicks(t *testing.T) {
	build := func() (*Rig, *obs.Bus) {
		bus := obs.NewBus(1 << 18)
		r, err := NewRig(Options{SF: 0.002, Seed: 1, Mode: ModeAdaptive, Bus: bus})
		if err != nil {
			t.Fatal(err)
		}
		r.EnableProbe(7 * r.Sched.Quantum())
		return r, bus
	}
	ref, refBus := build()
	rig, rigBus := build()
	rng := hashmix.Stream{State: 23}
	var refQ, rigQ []*db.Query
	submitted, wentIdle := 0, 0
	for barrier := 0; barrier < 300; barrier++ {
		n := 1 + int(rng.Next()%40)
		if rng.Next()%8 == 0 {
			n += 150 // long enough for every query in flight to finish
		}
		for k := rng.Next() % 4; k > 1; k-- { // half the barriers submit one or two
			seed := rng.Next()
			refQ = append(refQ, ref.Engine.Submit(tpch.BuildQ6(seed)))
			rigQ = append(rigQ, rig.Engine.Submit(tpch.BuildQ6(seed)))
			submitted++
		}
		busy := !rig.Sched.Idle()
		for i := 0; i < n; i++ {
			refTick(ref)
		}
		rig.Advance(n)
		if busy && rig.Sched.Idle() {
			wentIdle++
		}
		label := fmt.Sprintf("barrier %d (+%d quanta)", barrier, n)
		if rig.Machine.Now() != ref.Machine.Now() || rig.Sched.Stats() != ref.Sched.Stats() {
			t.Fatalf("%s: clock %d stats %+v, want %d %+v", label, rig.Machine.Now(), rig.Sched.Stats(), ref.Machine.Now(), ref.Sched.Stats())
		}
		if !reflect.DeepEqual(rig.Machine.Snapshot(), ref.Machine.Snapshot()) {
			t.Fatalf("%s: machine counters diverged", label)
		}
		if !reflect.DeepEqual(rig.Mech.Events(), ref.Mech.Events()) || !reflect.DeepEqual(rig.Probe.Samples(), ref.Probe.Samples()) {
			t.Fatalf("%s: %d transitions and %d probe samples, want %d and %d", label,
				len(rig.Mech.Events()), len(rig.Probe.Samples()), len(ref.Mech.Events()), len(ref.Probe.Samples()))
		}
		for i := 0; i < len(rigQ); i++ {
			if rigQ[i].Done() != refQ[i].Done() {
				t.Fatalf("%s: a query is done on one rig only", label)
			}
			if rigQ[i].Done() {
				rig.Engine.Release(rigQ[i])
				ref.Engine.Release(refQ[i])
				rigQ, refQ = append(rigQ[:i], rigQ[i+1:]...), append(refQ[:i], refQ[i+1:]...)
				i--
			}
		}
	}
	if !reflect.DeepEqual(rigBus.Events(), refBus.Events()) || rigBus.Dropped() > 0 {
		t.Fatalf("bus events diverged (%d vs %d, %d dropped)", rigBus.Len(), refBus.Len(), rigBus.Dropped())
	}
	if ref.Sched.IdleSkipped() != 0 || rig.Sched.IdleSkipped() == 0 {
		t.Fatalf("reference skipped %d quanta and Advance %d", ref.Sched.IdleSkipped(), rig.Sched.IdleSkipped())
	}
	if ref.Mech.Replayed != 0 || rig.Mech.Replayed == 0 || rig.Mech.TokenFlows != ref.Mech.TokenFlows {
		t.Fatalf("reference replayed %d of %d periods and Advance %d of %d", ref.Mech.Replayed, ref.Mech.TokenFlows, rig.Mech.Replayed, rig.Mech.TokenFlows)
	}
	if ref.Probe.Settled != 0 || rig.Probe.Settled == 0 {
		t.Fatalf("reference settled %d probe samples and Advance %d", ref.Probe.Settled, rig.Probe.Settled)
	}
	if submitted < 100 || wentIdle < 30 {
		t.Fatalf("%d queries submitted and %d stretches went idle midway: the walk exercised too little", submitted, wentIdle)
	}
}

// TestGridCycleMatchesFloatTest: gridCycle selects exactly the quantum the
// per-quantum float comparison selected — for the deadline test and for
// the sample-boundary test — including clock rates, starts and limits
// whose products are not representable.
func TestGridCycleMatchesFloatTest(t *testing.T) {
	cases := []struct {
		clockHz        float64
		quantum, start uint64
		seconds        float64
	}{
		{2.8e9, 140000, 0, 0.25},
		{2.8e9, 140000, 0, 0.0503},
		{2.8e9, 140000, 7 * 140000, 0.1},       // 0.1 s is not a binary fraction
		{2.8e9, 140000, 123456789, 1.0 / 3},    // off-grid start, repeating limit
		{2.8e9, 140000, 1 << 40, 600},          // the default limit, late start
		{2.3e9, 115000, 999999, 2.25},          // the fleet-faults horizon
		{1e9 / 3, 16667, 5, 0.7},               // non-representable clock
		{3.3333333333e9, 166666, 166666, 1e-4}, // shorter than one quantum
		{2.8e9, 140000, 0, 0},                  // fires at once
		{2.8e9, 140000, 42, -1},                // already past
		{2.8e9, 1, 0, 1e-9 * 3},                // one-cycle quantum
		{2.8e9, 140000, 1 << 62, 1e3},          // near the clock's range
	}
	for _, tc := range cases {
		topo := &numa.Topology{ClockHz: tc.clockHz}
		deadline := topo.CyclesToSeconds(tc.start) + tc.seconds
		last := topo.CyclesToSeconds(tc.start)
		tests := map[string]func(c uint64) bool{
			// OpenDriver's and Coordinator's deadline: now >= start+MaxSeconds.
			"deadline": func(c uint64) bool { return topo.CyclesToSeconds(c) >= deadline },
			// OpenDriver's sample boundary: now-lastSample >= SampleEvery.
			"sample": func(c uint64) bool { return topo.CyclesToSeconds(c)-last >= tc.seconds },
		}
		for name, fires := range tests {
			got := gridCycle(tc.start, tc.quantum, fires)
			// The old loop: test the floats at every quantum edge. Walk it
			// from a few hundred quanta short of the answer (and from the
			// start when that is close) so a late answer cannot hide.
			if !fires(got) {
				t.Errorf("%+v %s: gridCycle %d does not satisfy the float test", tc, name, got)
				continue
			}
			if (got-tc.start)%tc.quantum != 0 {
				t.Errorf("%+v %s: gridCycle %d is off the quantum grid", tc, name, got)
			}
			steps := (got - tc.start) / tc.quantum
			for back := uint64(1); back <= min(steps, 500); back++ {
				if c := got - back*tc.quantum; fires(c) {
					t.Errorf("%+v %s: float test already fires at %d, %d quanta before gridCycle %d", tc, name, c, back, got)
					break
				}
			}
		}
	}
	// A limit beyond the clock's range never fires.
	topo := &numa.Topology{ClockHz: 2.8e9}
	if got := gridCycle(0, 140000, func(c uint64) bool { return topo.CyclesToSeconds(c) >= 1e12 }); got != ^uint64(0) {
		t.Errorf("unreachable deadline = %d, want never", got)
	}
}

// TestQuantaUntil pins the jump rule every event-driven loop shares.
func TestQuantaUntil(t *testing.T) {
	const q = 100
	cases := []struct {
		now, due uint64
		max, n   int
	}{
		{1000, 1000, 50, 1},      // due now: every quantum
		{1000, 900, 50, 1},       // overdue
		{1000, 1001, 50, 1},      // inside the next quantum
		{1000, 1100, 50, 1},      // exactly its edge
		{1000, 1101, 50, 2},      // just past it
		{1000, 1500, 50, 5},      // on the grid: no extra quantum
		{1000, 1499, 50, 5},      // off the grid: the quantum that contains it
		{1000, 99999, 50, 50},    // capped
		{1000, ^uint64(0), 7, 7}, // nothing due
		{1000, ^uint64(0), 0, 1}, // at least one
		{0, ^uint64(0), 1 << 30, 1 << 30},
	}
	for _, tc := range cases {
		if got := QuantaUntil(tc.now, tc.due, q, tc.max); got != tc.n {
			t.Errorf("QuantaUntil(%d, %d, %d, %d) = %d, want %d", tc.now, tc.due, q, tc.max, got, tc.n)
		}
	}
}
