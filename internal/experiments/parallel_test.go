package experiments

import (
	"bytes"
	"context"
	"testing"
)

// parallel_test.go extends the golden contract to the worker knob: a
// cluster experiment must render byte-identical text, JSON and CSV whether
// the fleet engine runs sequentially (Workers 1) or spread over goroutines
// (Workers > 1), healthy or faulted.

// workersConfig is a scale-out config small enough to run several times
// per test; Workers is the knob under test, everything else is pinned.
func workersConfig() Config {
	return Config{
		SF: 0.002, Clients: 8, Seed: 7, OpenArrivals: 20,
		Machines: 4, Shards: 8,
	}
}

// renderedRun executes a registered experiment and returns its normalized
// text+json+csv rendering as one byte stream.
func renderedRun(t *testing.T, name string, cfg Config) []byte {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	res, err := e.Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Meta.WallTime = 0
	res.Meta.Version = "workers"
	var buf bytes.Buffer
	for _, format := range []string{"text", "json", "csv"} {
		if err := res.Render(&buf, format); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func checkWorkerEquivalence(t *testing.T, cfg Config) {
	t.Helper()
	seq := cfg
	seq.Workers = 1
	want := renderedRun(t, "scale-out", seq)
	par := cfg
	par.Workers = 3
	got := renderedRun(t, "scale-out", par)
	if !bytes.Equal(want, got) {
		t.Errorf("scale-out renders differently at Workers 1 vs 3\n--- workers=1 ---\n%s\n--- workers=3 ---\n%s",
			want, got)
	}
}

// TestScaleOutWorkerEquivalence: the healthy speedup sweep is byte-stable
// across worker counts.
func TestScaleOutWorkerEquivalence(t *testing.T) {
	checkWorkerEquivalence(t, workersConfig())
}

// TestScaleOutWorkerEquivalenceFaulted: the contract holds under a fault
// plan (machine 0, so the plan stays valid at every sweep point down to a
// one-machine fleet).
func TestScaleOutWorkerEquivalenceFaulted(t *testing.T) {
	cfg := workersConfig()
	cfg.Faults = "crash m0 @5ms for 10ms"
	checkWorkerEquivalence(t, cfg)
}
