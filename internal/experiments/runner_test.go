package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryCataloguesThirteenArtifacts pins the catalogue's content:
// the 13 paper artifacts in catalogue order, followed by the open-loop
// traffic scenarios, the topology sweep, the cluster tier and the failure
// experiments. Pinning the whole list also keeps every name unique.
func TestRegistryCataloguesThirteenArtifacts(t *testing.T) {
	want := []string{
		"fig4", "fig5", "fig7", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig20", "overhead", "consolidation",
		"htap-mix", "latency-load", "burst-response", "topology-sweep",
		"scale-out", "shard-skew", "rebalance-cost",
		"fault-tolerance", "partial-degradation",
	}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("catalogue has %d experiments %v, want %d", len(names), names, len(want))
	}
	for i, name := range want {
		if names[i] != name {
			t.Errorf("catalogue[%d] = %q, want %q", i, names[i], name)
		}
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missing", name)
		}
		if e.Title == "" || e.Summary == "" || len(e.Tags) == 0 || e.Body == nil {
			t.Errorf("%s has an incomplete row: %+v", name, e)
		}
	}
	// Tag selection finds the consolidated-tenant scenarios.
	tenancy := WithTag("tenancy")
	if len(tenancy) != 2 || tenancy[0].Name != "consolidation" || tenancy[1].Name != "htap-mix" {
		t.Errorf("WithTag(tenancy) = %v", tenancy)
	}
}

func TestResolveRejectsUnknownNamesUpFront(t *testing.T) {
	if _, err := Resolve("fig4", "nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("Resolve with typo: err = %v, want mention of the unknown name", err)
	}
	exps, err := Resolve("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != len(Names()) {
		t.Errorf("Resolve(all) = %d experiments, want the whole catalogue (%d)", len(exps), len(Names()))
	}
}

// TestRunnerExecutesConcurrently proves two experiments overlap in time:
// each blocks until it has seen the other start, which only completes when
// the worker pool truly runs them in parallel.
func TestRunnerExecutesConcurrently(t *testing.T) {
	a, b := make(chan struct{}), make(chan struct{})
	mk := func(name string, mine, other chan struct{}) Experiment {
		return Experiment{Name: name, Title: name, Body: func(ctx context.Context, c Config, obs Observer) (*Result, error) {
			close(mine)
			select {
			case <-other:
				return &Result{}, nil
			case <-time.After(10 * time.Second):
				return nil, fmt.Errorf("%s never saw its peer start", name)
			}
		}}
	}
	r := &Runner{Parallel: 2}
	reports := r.Run(context.Background(), mk("left", a, b), mk("right", b, a))
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, rep := range reports {
		if rep.Err != nil {
			t.Errorf("%s: %v", rep.Name, rep.Err)
		}
		if rep.Result == nil {
			t.Errorf("%s: missing result", rep.Name)
		}
	}
}

// TestRunnerContextCancellation covers both halves of cancellation: a
// running experiment observes ctx.Done, and a queued experiment is never
// started.
func TestRunnerContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	blocker := Experiment{Name: "blocker", Body: func(ctx context.Context, c Config, obs Observer) (*Result, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	var mu sync.Mutex
	ran := false
	second := Experiment{Name: "second", Body: func(ctx context.Context, c Config, obs Observer) (*Result, error) {
		mu.Lock()
		ran = true
		mu.Unlock()
		return &Result{}, nil
	}}
	go func() {
		<-started
		cancel()
	}()
	r := &Runner{Parallel: 1}
	reports := r.Run(ctx, blocker, second)
	if reports[0].Err != context.Canceled {
		t.Errorf("blocker err = %v, want context.Canceled", reports[0].Err)
	}
	if reports[1].Err != context.Canceled {
		t.Errorf("second err = %v, want context.Canceled", reports[1].Err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran {
		t.Error("second experiment body ran despite cancellation")
	}
}

// TestRunnerCollectsPerExperimentErrors: one failure does not abort the
// batch.
func TestRunnerCollectsPerExperimentErrors(t *testing.T) {
	boom := Experiment{Name: "boom", Body: func(ctx context.Context, c Config, obs Observer) (*Result, error) {
		return nil, fmt.Errorf("synthetic failure")
	}}
	fine := Experiment{Name: "fine", Body: func(ctx context.Context, c Config, obs Observer) (*Result, error) {
		return &Result{}, nil
	}}
	r := &Runner{Parallel: 2}
	reports := r.Run(context.Background(), boom, fine)
	if reports[0].Err == nil || !strings.Contains(reports[0].Err.Error(), "synthetic") {
		t.Errorf("boom err = %v", reports[0].Err)
	}
	if reports[1].Err != nil || reports[1].Result == nil {
		t.Errorf("fine report = %+v", reports[1])
	}
}

// TestRegisteredExperimentHonorsCancelledContext: a catalogued
// experiment returns promptly on a dead context.
func TestRegisteredExperimentHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, ok := Lookup("fig4")
	if !ok {
		t.Fatal("fig4 not registered")
	}
	if _, err := e.Run(ctx, tiny(), nil); err == nil {
		t.Error("cancelled context accepted")
	}
}

// TestRunnerObserverSeesPhases: the Observe factory receives per-experiment
// observers and phases flow through them.
func TestRunnerObserverSeesPhases(t *testing.T) {
	type event struct{ exp, phase string }
	var mu sync.Mutex
	var events []event
	r := &Runner{
		Parallel: 2,
		Config:   tiny(),
		Observe: func(name string) Observer {
			return observerFunc(func(phase string) {
				mu.Lock()
				events = append(events, event{name, phase})
				mu.Unlock()
			})
		},
	}
	exps, err := Resolve("fig5", "overhead")
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range r.Run(context.Background(), exps...) {
		if rep.Err != nil {
			t.Fatalf("%s: %v", rep.Name, rep.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	seen := map[string]bool{}
	for _, e := range events {
		seen[e.exp] = true
	}
	if !seen["fig5"] || !seen["overhead"] {
		t.Errorf("observer events missing experiments: %v", events)
	}
}

// observerFunc adapts a phase callback into an Observer.
type observerFunc func(phase string)

func (f observerFunc) PhaseStart(phase string) { f(phase) }
func (f observerFunc) PhaseDone(phase string)  {}
func (f observerFunc) Progress(int, int)       {}

// recorder is an Observer that keeps every callback as one line.
type recorder struct{ lines []string }

func (r *recorder) PhaseStart(phase string) { r.lines = append(r.lines, phase+" ...") }
func (r *recorder) PhaseDone(phase string)  { r.lines = append(r.lines, phase+" done") }
func (r *recorder) Progress(done, total int) {
	r.lines = append(r.lines, fmt.Sprintf("%d/%d", done, total))
}

// TestSweepReportsEachPhase pins the one reporting idiom: each item is a
// phase followed by progress i/n of its own sweep; a failing body ends
// the sweep inside its phase, and a dead context ends it before the next.
func TestSweepReportsEachPhase(t *testing.T) {
	var rec recorder
	double := func(n int) string { return fmt.Sprintf("n=%d", 2*n) }
	var seen []int
	err := sweep(context.Background(), &rec, []int{1, 2}, double, func(i, n int) error {
		seen = append(seen, i, n)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sweep(context.Background(), &rec, []string{"only"}, nil, func(int, string) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	want := "n=2 ...|n=2 done|1/2|n=4 ...|n=4 done|2/2|only ...|only done|1/1"
	if got := strings.Join(rec.lines, "|"); got != want {
		t.Errorf("callbacks %s, want %s", got, want)
	}
	if fmt.Sprint(seen) != "[0 1 1 2]" {
		t.Errorf("body saw (i, item) %v, want [0 1 1 2]", seen)
	}

	rec.lines = nil
	boom := fmt.Errorf("boom")
	err = sweep(context.Background(), &rec, []string{"a", "b"}, nil, func(int, string) error { return boom })
	if err != boom || strings.Join(rec.lines, "|") != "a ..." {
		t.Errorf("failing body: err %v, callbacks %v", err, rec.lines)
	}

	rec.lines = nil
	ctx, cancel := context.WithCancel(context.Background())
	err = sweep(ctx, &rec, []string{"a", "b"}, nil, func(int, string) error { cancel(); return nil })
	if err != context.Canceled || strings.Join(rec.lines, "|") != "a ...|a done|1/2" {
		t.Errorf("cancelled sweep: err %v, callbacks %v", err, rec.lines)
	}
}
