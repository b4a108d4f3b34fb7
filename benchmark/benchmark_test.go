package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the driver's contract for BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationsMatchBenchmarkJSON keeps the program's metric and
// workload tables and the driver's copy of them in step, inside the
// driver's limits.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) || len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d (2..8 allowed)", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	match := func(kind string, got []declaredMetric, want []metricDef, limit int, bounded bool) {
		t.Helper()
		if len(got) != len(want) || len(got) < 1 || len(got) > limit {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d (1..%d allowed)", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			w := want[i]
			name(g.Name)
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q does not match %v", g.Name, g.Unit, unitRE)
			}
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better is %q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program (0 < bound <= 0.25)", g.Name, g.Bound, w.Bound)
			case !bounded && (g.Bound != nil || w.Bound != 0):
				t.Errorf("%s: a per-layer metric carries no bound", g.Name)
			}
		}
	}
	match("end_to_end", b.EndToEnd, endToEnd, 16, true)
	match("per_layer", b.PerLayer, perLayer, 128, false)
	if d, ok := findMetric(endToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
}

// TestSmoke runs every workload at the smoke operating point, untraced
// and traced, in this process, and checks that each report is clean and
// carries every declared metric and nothing else.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			var rep *runReport
			if traced {
				rep = runPerLayer(def, 1, true, out)
			} else {
				rep = runEndToEnd(def, 1, 0, true)
			}
			if rep.Failed > 0 || rep.Attempted < 3 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", def.name, traced, rep.Attempted, rep.Failed, rep.Failures)
				continue
			}
			want := declared(traced)
			for _, d := range want {
				s, ok := rep.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s is declared but not reported", def.name, traced, d.Name)
				} else if s.Unit != d.Unit {
					t.Errorf("%s: %s reported in %q, declared in %q", def.name, d.Name, s.Unit, d.Unit)
				}
			}
			for n := range rep.Metrics {
				if _, ok := findMetric(want, n); !ok {
					t.Errorf("%s traced=%v: %s is reported but not declared", def.name, traced, n)
				}
			}
			if !traced {
				for _, d := range want {
					if rep.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.name, d.Name, rep.Metrics[d.Name].Value)
					}
				}
				continue
			}
			if rep.TraceFile == "" || rep.Spans["simulate"].Count != 2 {
				t.Errorf("%s: traced run left no trace file or simulate spans: %q %+v", def.name, rep.TraceFile, rep.Spans)
			}
		}
	}
}

// TestSeedReachesEveryWorkload: another seed must give another simulation.
func TestSeedReachesEveryWorkload(t *testing.T) {
	for _, def := range workloads {
		digests := map[string]bool{}
		for seed := uint64(1); seed <= 2; seed++ {
			rep := &runReport{Metrics: map[string]stat{}}
			r := &runner{def: def, seed: seed, smoke: true, report: rep}
			if _, ok := r.operation("rep", nil); !ok {
				t.Fatalf("%s seed %d: %v", def.name, seed, rep.Failures)
			}
			digests[rep.Digest] = true
		}
		if len(digests) != 2 {
			t.Errorf("%s: seeds 1 and 2 give the same sim_digest", def.name)
		}
	}
}

// fakeRep replays a hand-built result through the real operation check.
type fakeRep struct{ res simResult }

func (f *fakeRep) simulate()         {}
func (f *fakeRep) result() simResult { return f.res }

func goodResult() simResult {
	return simResult{
		Offered: 10, Completed: 7, Dropped: 1, Failed: 1, Abandoned: 1,
		ElapsedCycles: 1000, ClockEnd: 1000, ElapsedSeconds: 1,
		PeakCores: 16, CoreLimit: 16,
		Counts: map[string]float64{"db.queries_done": 7},
	}
}

// TestChecksFailBrokenOperations feeds hand-built broken results to the
// operation check: each conservation law, a workload-specific problem, a
// panic and a digest that differs from the first repetition's must each
// mark exactly that operation failed.
func TestChecksFailBrokenOperations(t *testing.T) {
	broken := map[string]func(*simResult){
		"requests not conserved":   func(r *simResult) { r.Dropped++ },
		"nothing completed":        func(r *simResult) { r.Abandoned += r.Completed; r.Completed = 0 },
		"cores over the limit":     func(r *simResult) { r.PeakCores = r.CoreLimit + 1 },
		"clock did not advance":    func(r *simResult) { r.ElapsedCycles = 0 },
		"workload-specific":        func(r *simResult) { r.Problems = []string{"a scatter lost a part"} },
		"digest differs (a count)": func(r *simResult) { r.Counts["db.queries_done"]++ },
		"digest differs (latency)": func(r *simResult) { r.P99++ },
	}
	for name, breakIt := range broken {
		next := goodResult()
		def := workloadDef{name: "fake", build: func(uint64, bool, *tracer) (rep, error) { return &fakeRep{next}, nil }}
		rep := &runReport{Metrics: map[string]stat{}}
		r := &runner{def: def, report: rep}
		if _, ok := r.operation("first", nil); !ok || rep.Failed != 0 {
			t.Fatalf("%s: the unbroken result failed: %v", name, rep.Failures)
		}
		next = goodResult()
		breakIt(&next)
		if _, ok := r.operation("broken", nil); ok || rep.Failed != 1 || rep.Attempted != 2 {
			t.Errorf("%s: attempted %d, failed %d, want 2 and 1", name, rep.Attempted, rep.Failed)
		}
	}

	def := workloadDef{name: "fake", build: func(uint64, bool, *tracer) (rep, error) { panic("boom") }}
	rep := &runReport{Metrics: map[string]stat{}}
	if _, ok := (&runner{def: def, report: rep}).operation("panics", nil); ok || rep.Failed != 1 {
		t.Errorf("a panic must be contained and counted: failed %d", rep.Failed)
	}
}

// TestJudge pins compare's four verdicts.
func TestJudge(t *testing.T) {
	wall, _ := findMetric(endToEnd, "wall_s")
	qps, _ := findMetric(endToEnd, "sim_qps")
	tight := func(v float64) stat { return stat{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 5} }
	wide := func(v float64) stat { return stat{Value: v, Q1: v * 0.8, Q3: v * 1.2, N: 5} }
	for _, c := range []struct {
		d    metricDef
		a, b stat
		same bool
		want string
	}{
		{wall, tight(1), tight(1 + wall.Bound/2), true, verdictOK},
		{wall, tight(1), tight(1 + wall.Bound*2), true, verdictRegressed},
		{wall, tight(1), tight(0.5), true, verdictOK},
		{wall, wide(1), wide(1.05), true, verdictUnresolved},
		{qps, stat{Value: 100}, stat{Value: 100.001}, true, verdictChanged},
		{qps, stat{Value: 100}, stat{Value: 100}, true, verdictOK},
		{qps, stat{Value: 100}, stat{Value: 100 * (1 - qps.Bound*2)}, false, verdictRegressed},
		{qps, stat{Value: 100}, stat{Value: 101}, false, verdictOK},
	} {
		if got := judge(c.d, c.a, c.b, c.same); got != c.want {
			t.Errorf("judge(%s, %v -> %v, same seed %v) = %s, want %s", c.d.Name, c.a.Value, c.b.Value, c.same, got, c.want)
		}
	}
}

// TestHostProbe: the probe's chain must visit every entry of its table
// before it repeats (a short cycle would stay inside the caches it is
// meant to miss), and a host twice as slow as the reference must halve the
// reported time.
func TestHostProbe(t *testing.T) {
	p, err := newHostProbe(12)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	seen := make([]bool, len(p.table))
	pos := uint32(0)
	for range p.table {
		if seen[pos] {
			t.Fatalf("the chain returns to entry %d before it has visited all %d", pos, len(p.table))
		}
		seen[pos] = true
		pos = p.table[pos]
	}
	p.measure()
	if s := p.take(); len(s) != 2 || s[0] <= 0 || len(p.take()) != 0 {
		t.Errorf("measure recorded %v, want two positive samples, taken once", s)
	}
	got := atReference(stat{Value: 3, Q1: 3, Q3: 4, N: 5}, 2*probeRefNS)
	if got.Value != 1.5 || got.Q1 != 1.5 || got.Q3 != 2 || got.Raw != 3 || got.N != 5 {
		t.Errorf("atReference at half the reference speed = %+v", got)
	}
	// The lower quartile of five is the mean of the two smallest.
	if s := lowerQuartileStat([]float64{9, 2, 7, 1, 8}); s.Value != 1.5 || s.N != 5 {
		t.Errorf("lowerQuartileStat = %+v, want 1.5 of 5", s)
	}
}
