package cluster

import (
	"reflect"
	"testing"

	"elasticore/internal/arrivals"
	"elasticore/internal/obs"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// lifecycle_test.go pins the coordinator's one request path: every
// configuration walks the same transitions, each counter and bus event is
// emitted at exactly one of them, and a timer that never fires leaves no
// trace.

// trafficKinds are the three ways a request is routed.
var trafficKinds = []struct {
	name string
	tune func(c *Coordinator)
}{
	{"keyed", func(c *Coordinator) { c.Keys = uniformKeys(c.Fleet.Sharder) }},
	{"unkeyed", func(c *Coordinator) {}},
	{"scatter", func(c *Coordinator) { c.ScatterEvery = 1 }},
}

// TestCoordinatorLifecycle drives every configuration that used to pick
// a code path through every routing kind and checks the books: each
// request ends in exactly one terminal state, OnOutcome sees each
// resolution once, each bus event is published where its counter is
// counted, and between them the rows reach every terminal state and
// every fault-tolerance action.
func TestCoordinatorLifecycle(t *testing.T) {
	configs := []struct {
		name string
		plan string
		tune func(c *Coordinator)
	}{
		{name: "healthy", tune: func(c *Coordinator) {}},
		{name: "timeout-only", tune: func(c *Coordinator) { c.TimeoutSeconds, c.BackoffSeconds = 1e-3, 0.5e-3 }},
		{name: "hedge-only", tune: func(c *Coordinator) { c.HedgeAfterSeconds = 0.5e-3 }},
		{name: "crash", plan: "crash m1 @4ms for 10ms", tune: func(c *Coordinator) { c.BackoffSeconds = 0.5e-3 }},
		{name: "lossy-link", plan: "link m1 +0.7ms drop 0.35 @0s",
			tune: func(c *Coordinator) { c.TimeoutSeconds, c.BackoffSeconds = 3e-3, 0.5e-3 }},
	}
	var total Result
	for _, cfg := range configs {
		for _, kind := range trafficKinds {
			bus := obs.NewBus(0)
			f := faultedFleet(t, cfg.plan, 2, bus)
			outcomes := 0
			c := &Coordinator{
				Fleet:       f,
				Process:     arrivals.NewPoisson(4000, 11),
				MaxInFlight: 2,
				QueueCap:    3,
				MaxArrivals: 80,
				MaxSeconds:  0.022, // the last arrivals are still in the system
				OnOutcome:   func(_, _ uint64, _ bool) { outcomes++ },
			}
			cfg.tune(c)
			kind.tune(c)
			res := c.Run()
			label := cfg.name + "/" + kind.name

			if res.Abandoned < 0 || res.Offered != res.Completed+res.Dropped+res.Failed+res.Abandoned {
				t.Fatalf("%s: Offered %d != Completed %d + Dropped %d + Failed %d + Abandoned %d",
					label, res.Offered, res.Completed, res.Dropped, res.Failed, res.Abandoned)
			}
			if want := res.Completed + res.Dropped + res.Failed; outcomes != want {
				t.Fatalf("%s: OnOutcome called %d times for %d resolutions", label, outcomes, want)
			}
			if got := res.RoutedKeyed + res.RoutedBalanced + res.Scattered; got != res.Offered {
				t.Fatalf("%s: routing kinds sum to %d, want Offered %d", label, got, res.Offered)
			}
			if uint64(res.Completed) != res.Latency.Count() {
				t.Fatalf("%s: %d latency samples for %d completions", label, res.Latency.Count(), res.Completed)
			}
			routed := 0
			for _, st := range res.PerMachine {
				routed += st.Routed
			}
			for _, ev := range []struct {
				kind obs.Kind
				want int
			}{
				{obs.KindRoute, routed},
				{obs.KindRetry, res.Retried + res.WireDropped},
				{obs.KindFailover, res.Failovers + res.Hedged},
			} {
				if got := len(bus.EventsOfKind(ev.kind)); got != ev.want {
					t.Fatalf("%s: %d %v events, want %d", label, got, ev.kind, ev.want)
				}
			}

			total.Completed += res.Completed
			total.Dropped += res.Dropped
			total.Failed += res.Failed
			total.Abandoned += res.Abandoned
			total.Retried += res.Retried
			total.Hedged += res.Hedged
			total.Failovers += res.Failovers
			total.WireDropped += res.WireDropped
		}
	}
	for name, n := range map[string]int{
		"completed": total.Completed, "dropped": total.Dropped, "failed": total.Failed,
		"abandoned": total.Abandoned, "retried": total.Retried, "hedged": total.Hedged,
		"failed over": total.Failovers, "lost on the wire": total.WireDropped,
	} {
		if n == 0 {
			t.Errorf("no request of the table was ever %s", name)
		}
	}
}

// TestCoordinatorIdleTimeoutInvisible: a timeout longer than the run
// arms a deadline on every attempt and a retry budget nothing spends;
// result and bus stream match the run without one, byte for byte.
func TestCoordinatorIdleTimeoutInvisible(t *testing.T) {
	for _, kind := range trafficKinds[:2] { // keyed, unkeyed; both with every 7th a scatter
		run := func(timeout float64) (Result, []obs.Event) {
			bus := obs.NewBus(0)
			f := testFleet(t, 2, workload.ModeDense, bus)
			pressuredArbiter(t, f, 12)
			c := pressuredCoordinator(f)
			c.Keys = nil
			c.ScatterEvery = 7
			c.TimeoutSeconds = timeout
			kind.tune(c)
			res := c.Run()
			if res.Dropped+res.Failed+res.Abandoned > 0 || res.Completed == 0 || res.Scattered == 0 {
				t.Fatalf("%s: want an unshed run with scatters, got %+v", kind.name, res)
			}
			queued := 0
			for _, st := range res.PerMachine {
				queued = max(queued, st.PeakQueueDepth)
			}
			if queued == 0 {
				t.Fatalf("%s: no queue ever built: the run is not pressured", kind.name)
			}
			return res, bus.Events()
		}
		want, wantEvents := run(0)
		got, gotEvents := run(3600)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: an idle timeout changed the result:\n%+v\nwant\n%+v", kind.name, got, want)
		}
		if !reflect.DeepEqual(wantEvents, gotEvents) {
			t.Fatalf("%s: an idle timeout changed the bus stream (%d events, want %d)",
				kind.name, len(gotEvents), len(wantEvents))
		}
	}
}

// TestRunLeavesConfigUnchanged: the open loops resolve their defaults into
// locals. A mostly zero-valued OpenDriver and Coordinator read the same
// after Run as before, in every exported field reflect can compare (funcs
// cannot be; an OpenDriver's unexported fields are its reused scratch).
func TestRunLeavesConfigUnchanged(t *testing.T) {
	same := func(t *testing.T, before, after any) {
		t.Helper()
		b, a := reflect.ValueOf(before), reflect.ValueOf(after)
		for i := 0; i < b.NumField(); i++ {
			field := b.Type().Field(i)
			if !field.IsExported() || field.Type.Kind() == reflect.Func {
				continue
			}
			if !reflect.DeepEqual(b.Field(i).Interface(), a.Field(i).Interface()) {
				t.Errorf("Run changed %s from %v to %v", field.Name, b.Field(i), a.Field(i))
			}
		}
	}
	t.Run("OpenDriver", func(t *testing.T) {
		r, err := workload.NewRig(workload.Options{SF: 0.002, Seed: 1, Mode: workload.ModeDense})
		if err != nil {
			t.Fatal(err)
		}
		d := &workload.OpenDriver{Rig: r, Process: arrivals.NewPoisson(400, 3), MaxArrivals: 10}
		before := *d
		if res := d.RunSameQuery(tpch.BuildQ6); res.Completed == 0 {
			t.Fatal("the phase completed nothing")
		}
		same(t, before, *d)
	})
	t.Run("Coordinator", func(t *testing.T) {
		c := &Coordinator{Fleet: testFleet(t, 2, workload.ModeDense, nil), Process: arrivals.NewPoisson(400, 11), MaxArrivals: 10}
		before := *c
		if res := c.Run(); res.Completed == 0 {
			t.Fatal("the run completed nothing")
		}
		same(t, before, *c)
	})
}
