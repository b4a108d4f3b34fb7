package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"elasticore/internal/experiments"
)

// main_test.go pins the CLI's exit-status contract: `elasticbench run`
// must fail (main exits non-zero) when ANY experiment in the batch
// errors, even though per-experiment errors are reported individually
// and the rest of the batch keeps running.

// The two fixtures are passed to execute directly; they are not in the
// catalogue, so the CLI never lists or resolves them.
var (
	alwaysFails = experiments.Experiment{
		Name: "test-always-fails",
		Body: func(ctx context.Context, c experiments.Config, obs experiments.Observer) (*experiments.Result, error) {
			return nil, fmt.Errorf("intentional failure")
		},
	}
	alwaysSucceeds = experiments.Experiment{
		Name: "test-always-succeeds",
		Body: func(ctx context.Context, c experiments.Config, obs experiments.Observer) (*experiments.Result, error) {
			return &experiments.Result{}, nil
		},
	}
)

// batch is the argument execute takes.
func batch(exps ...experiments.Experiment) []experiments.Experiment { return exps }

// catalogued resolves one catalogued experiment.
func catalogued(t *testing.T, name string) []experiments.Experiment {
	t.Helper()
	exps, err := experiments.Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	return exps
}

func quietRunFlags(t *testing.T) *runFlags {
	t.Helper()
	return &runFlags{format: "text", out: t.TempDir(), parallel: 1}
}

// TestDispatchRejectsMissingOrUnknownCommand: there is one command
// syntax; no arguments, a bare flag (the retired `-fig N` form) or a
// misspelt command is an error (main exits non-zero), never a default run.
func TestDispatchRejectsMissingOrUnknownCommand(t *testing.T) {
	for _, args := range [][]string{nil, {"-fig", "19"}, {"-sf", "0.002"}, {"runn", "fig4"}} {
		if err := dispatch(args); err == nil {
			t.Errorf("dispatch(%q) returned nil (process would exit 0)", args)
		}
	}
}

// TestExecuteFailsWhenAnyExperimentErrors: one failure in a batch of two
// must surface as a non-nil error from execute (which main turns into
// exit status 1), naming how many failed.
func TestExecuteFailsWhenAnyExperimentErrors(t *testing.T) {
	err := execute(batch(alwaysSucceeds, alwaysFails), quietRunFlags(t))
	if err == nil {
		t.Fatal("batch with a failing experiment returned nil error (process would exit 0)")
	}
	if !strings.Contains(err.Error(), "1 of 2") {
		t.Errorf("error %q does not report the failure count", err)
	}
}

// TestExecuteAllFailuresStillErrors: the all-failed batch must not be
// mistaken for an empty success.
func TestExecuteAllFailuresStillErrors(t *testing.T) {
	err := execute(batch(alwaysFails), quietRunFlags(t))
	if err == nil || !strings.Contains(err.Error(), "1 of 1") {
		t.Errorf("all-failing batch: err = %v, want '1 of 1 experiments failed'", err)
	}
}

// TestExecuteSucceedsCleanly: a healthy batch returns nil, so the
// process exits 0 only when every experiment ran and rendered.
func TestExecuteSucceedsCleanly(t *testing.T) {
	if err := execute(batch(alwaysSucceeds), quietRunFlags(t)); err != nil {
		t.Errorf("healthy batch errored: %v", err)
	}
}

// TestExecuteRejectsUnknownNamesBeforeRunning: typos fail fast — the
// batch is resolved before execute runs any of it.
func TestExecuteRejectsUnknownNamesBeforeRunning(t *testing.T) {
	err := dispatch([]string{"run", "fig4", "no-such-experiment", "-out", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "no-such-experiment") {
		t.Errorf("unknown name: err = %v, want mention of the name", err)
	}
}

// TestApplyEngineParsesLoads covers the open-loop flag plumbing.
func TestApplyEngineParsesLoads(t *testing.T) {
	rf := &runFlags{loads: "0.5, 1, 2.5"}
	if err := rf.applyEngine("monetdb"); err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1, 2.5}
	if len(rf.cfg.Loads) != len(want) {
		t.Fatalf("parsed %v, want %v", rf.cfg.Loads, want)
	}
	for i := range want {
		if rf.cfg.Loads[i] != want[i] {
			t.Errorf("loads[%d] = %g, want %g", i, rf.cfg.Loads[i], want[i])
		}
	}
	bad := &runFlags{loads: "0.5,abc"}
	if err := bad.applyEngine("monetdb"); err == nil {
		t.Error("malformed -loads accepted")
	}
}

// TestTopologyFlagFailsFast: a malformed -topology must fail the batch
// before any experiment runs (central Config validation), and the error
// must surface the offending spec.
func TestTopologyFlagFailsFast(t *testing.T) {
	rf := quietRunFlags(t)
	rf.cfg.Topology = "4x4 @ 1 2"
	err := execute(batch(alwaysSucceeds), rf)
	if err == nil {
		t.Fatal("malformed -topology spec accepted")
	}
}

// TestMachinesFlagFailsFast: a negative -machines must fail the batch
// before any experiment runs (central Config validation), turning into
// a non-zero exit status.
func TestMachinesFlagFailsFast(t *testing.T) {
	rf := quietRunFlags(t)
	rf.cfg.Machines = -1
	if err := execute(batch(alwaysSucceeds), rf); err == nil {
		t.Fatal("-machines -1 accepted")
	}
}

// TestShardsFlagFailsFast: fewer shards than machines would leave
// machines without data; the batch must fail up front.
func TestShardsFlagFailsFast(t *testing.T) {
	rf := quietRunFlags(t)
	rf.cfg.Machines = 4
	rf.cfg.Shards = 2
	if err := execute(batch(alwaysSucceeds), rf); err == nil {
		t.Fatal("-machines 4 -shards 2 accepted")
	}
}

// TestNonFiniteFlagsFailFast: a NaN or infinite -sf, -loads or
// -lookup-ratios entry must fail the batch before any experiment body
// runs (dispatch errs, so main exits non-zero); an -sf whose row counts
// overflow int fails in tpch.Load, the check every rig shares.
func TestNonFiniteFlagsFailFast(t *testing.T) {
	for _, flags := range [][]string{
		{"-sf", "NaN"}, {"-sf", "Inf"}, {"-loads", "1,NaN"}, {"-loads", "Inf"}, {"-lookup-ratios", "NaN"},
	} {
		args := append([]string{"run", "fig5", "-out", t.TempDir()}, flags...)
		if err := dispatch(args); err == nil {
			t.Errorf("%v accepted (process would exit 0)", flags)
		}
	}
	if err := dispatch([]string{"run", "fig5", "-sf", "1e300", "-out", t.TempDir()}); err == nil {
		t.Error("-sf 1e300 accepted (process would exit 0)")
	}
}

// TestMachinesFlagRunsFleet: the flags reach the cluster experiments —
// a 2-machine scale-out runs end to end.
func TestMachinesFlagRunsFleet(t *testing.T) {
	rf := quietRunFlags(t)
	rf.cfg.SF = 0.002
	rf.cfg.Clients = 4
	rf.cfg.Seed = 7
	rf.cfg.OpenArrivals = 20
	rf.cfg.Machines = 2
	if err := execute(catalogued(t, "scale-out"), rf); err != nil {
		t.Fatalf("scale-out on 2 machines failed: %v", err)
	}
}

// TestFaultsFlagFailsFast: a malformed -faults plan must fail the batch
// before any experiment runs (central Config validation).
func TestFaultsFlagFailsFast(t *testing.T) {
	rf := quietRunFlags(t)
	rf.cfg.Faults = "explode m0 @1s"
	if err := execute(batch(alwaysSucceeds), rf); err == nil {
		t.Fatal("malformed -faults plan accepted")
	}
}

// TestReplicasFlagFailsFast: more replicas than machines cannot place
// distinct shard copies; the batch must fail up front.
func TestReplicasFlagFailsFast(t *testing.T) {
	rf := quietRunFlags(t)
	rf.cfg.Machines = 2
	rf.cfg.Replicas = 3
	if err := execute(batch(alwaysSucceeds), rf); err == nil {
		t.Fatal("-machines 2 -replicas 3 accepted")
	}
}

// TestFaultsFlagRunsFaultedFleet: a crash plan from the flag reaches the
// fleet — a replicated 2-machine fault-tolerance run survives end to end.
func TestFaultsFlagRunsFaultedFleet(t *testing.T) {
	rf := quietRunFlags(t)
	rf.cfg.SF = 0.002
	rf.cfg.Clients = 4
	rf.cfg.Seed = 7
	rf.cfg.OpenArrivals = 20
	rf.cfg.Machines = 2
	rf.cfg.Replicas = 2
	rf.cfg.Faults = "crash m1 @0.01s for 0.03s"
	if err := execute(catalogued(t, "fault-tolerance"), rf); err != nil {
		t.Fatalf("faulted fault-tolerance run failed: %v", err)
	}
}

// TestTopologyFlagAcceptsZooNames: a named shape runs a real experiment
// end to end on the selected machine.
func TestTopologyFlagAcceptsZooNames(t *testing.T) {
	rf := quietRunFlags(t)
	rf.cfg.SF = 0.002
	rf.cfg.Clients = 4
	rf.cfg.Users = []int{1}
	rf.cfg.Topology = "2socket"
	if err := execute(catalogued(t, "fig4"), rf); err != nil {
		t.Fatalf("fig4 on 2socket failed: %v", err)
	}
}
