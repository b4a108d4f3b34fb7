package elasticore

// bench_test.go regenerates every table and figure of the paper's
// evaluation as Go benchmarks — one per artifact, plus ablations of the
// design choices called out in ARCHITECTURE.md. Each benchmark delegates to the
// corresponding internal/experiments harness and reports the figure's
// headline quantities as custom metrics.
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkFig19 -benchtime=1x

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/elastic"
	"elasticore/internal/numa"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// BenchmarkRunnerBatch exercises the experiment platform end to end: two
// catalogued experiments executed concurrently by the worker-pool Runner.
func BenchmarkRunnerBatch(b *testing.B) {
	r := &Runner{Parallel: 2, Config: ExperimentConfig{SF: 0.002, Clients: 8}}
	fig5, _ := LookupExperiment("fig5")
	overhead, _ := LookupExperiment("overhead")
	for i := 0; i < b.N; i++ {
		for _, rep := range r.Run(context.Background(), fig5, overhead) {
			if rep.Err != nil {
				b.Fatalf("%s: %v", rep.Name, rep.Err)
			}
		}
	}
}

// benchConfig is the common operating point: large enough for the shapes
// to be stable, small enough for the full suite to finish in minutes.
func benchConfig() ExperimentConfig {
	return ExperimentConfig{SF: 0.005, Clients: 32, Users: []int{1, 4, 16, 64}, Seed: 1}
}

// benchRun runs a catalogued experiment, failing the benchmark on error.
func benchRun(b *testing.B, name string, cfg ExperimentConfig) *Result {
	e, ok := LookupExperiment(name)
	if !ok {
		b.Fatalf("%s not catalogued", name)
	}
	res, err := e.Run(context.Background(), cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// benchCell reads column col of the first row of res's table whose
// leading cells print as keys; a missing table, row or column fails the
// benchmark.
func benchCell(b *testing.B, res *Result, table, col string, keys ...any) float64 {
	tb := res.Table(table)
	for i := 0; tb != nil && i < len(tb.Rows); i++ {
		if r := tb.Rows[i]; len(r) >= len(keys) && fmt.Sprintln(r[:len(keys)]...) == fmt.Sprintln(keys...) {
			if v, ok := tb.Float(i, tb.Col(col)); ok {
				return v
			}
		}
	}
	b.Fatalf("%s: no %q cell in table %q row %v", res.Name, col, table, keys)
	return 0
}

// benchMetric reads a named Result metric, failing the benchmark when it
// is missing.
func benchMetric(b *testing.B, res *Result, name string) float64 {
	v, ok := res.Metric(name)
	if !ok {
		b.Fatalf("%s: no metric %q", res.Name, name)
	}
	return v
}

// BenchmarkFig04 regenerates Figure 4: Q6 throughput, minor faults/s and
// HT MB/s under increasing concurrency for Dense/C, Sparse/C, OS/C and
// OS/MonetDB.
func BenchmarkFig04(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "fig4", benchConfig())
		mdb, c := benchCell(b, res, "sweep", "HT MB/s", "OS/MonetDB", 64), benchCell(b, res, "sweep", "HT MB/s", "OS/C", 64)
		if c > 0 {
			b.ReportMetric(mdb/c, "HT-monetdb/C-x")
			b.ReportMetric(benchCell(b, res, "sweep", "q/s", "OS/MonetDB", 64), "monetdb-q/s")
		}
	}
}

// BenchmarkFig05 regenerates Figures 5 and 6: single-client thread
// migration map and the per-operator tomograph.
func BenchmarkFig05(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "fig5", benchConfig())
		b.ReportMetric(benchMetric(b, res, "migrations"), "migrations")
		b.ReportMetric(benchMetric(b, res, "parallel_theta"), "theta-fanout")
	}
}

// BenchmarkFig07 regenerates Figure 7: PrT state transitions and core
// allocation over a Q6 burst.
func BenchmarkFig07(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "fig7", benchConfig())
		b.ReportMetric(benchMetric(b, res, "peak_cores"), "peak-cores")
		b.ReportMetric(benchMetric(b, res, "allocations"), "allocs")
		b.ReportMetric(benchMetric(b, res, "releases"), "releases")
	}
}

// BenchmarkFig13 regenerates Figure 13: throughput, CPU load, tasks and
// stolen tasks for OS/Dense/Sparse/Adaptive under a concurrency sweep.
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "fig13", benchConfig())
		if os := benchCell(b, res, "sweep", "q/s", ModeOS, 64); os > 0 {
			b.ReportMetric(benchCell(b, res, "sweep", "q/s", ModeAdaptive, 64)/os, "tput-adaptive/os")
			if ad := benchCell(b, res, "sweep", "stolen", ModeAdaptive, 64); ad > 0 {
				b.ReportMetric(benchCell(b, res, "sweep", "stolen", ModeOS, 64)/ad, "stolen-os/adaptive")
			}
		}
	}
}

// BenchmarkFig14 regenerates Figure 14: per-socket L3 misses, memory
// throughput and HT traffic at the highest concurrency.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "fig14", benchConfig())
		if ad := benchCell(b, res, "sockets", "HT GB/s", ModeAdaptive); ad > 0 {
			b.ReportMetric(benchCell(b, res, "sockets", "HT GB/s", ModeOS)/ad, "HT-os/adaptive")
		}
		b.ReportMetric(benchCell(b, res, "sockets", "L3 total", ModeAdaptive)/benchCell(b, res, "sockets", "L3 total", ModeOS), "L3-adaptive/os")
	}
}

// BenchmarkFig15 regenerates Figure 15: L3 misses across selectivities.
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "fig15", benchConfig())
		if lo := benchCell(b, res, "sweep", "L3 misses", ModeOS, 0.02); lo > 0 {
			b.ReportMetric(benchCell(b, res, "sweep", "L3 misses", ModeOS, 1.0)/lo, "miss-growth-os")
		}
	}
}

// BenchmarkFig16 regenerates Figure 16: migration maps per mode.
func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "fig16", benchConfig())
		b.ReportMetric(benchCell(b, res, "modes", "nodes touched", ModeOS), "os-nodes")
		b.ReportMetric(benchCell(b, res, "modes", "nodes touched", ModeAdaptive), "adaptive-nodes")
	}
}

// BenchmarkFig17 regenerates Figure 17: CPU-load vs HT/IMC strategies.
func BenchmarkFig17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "fig17", benchConfig())
		if ad := benchCell(b, res, "strategies", "resp (s)", ModeAdaptive, "cpu-load"); ad > 0 {
			b.ReportMetric(benchCell(b, res, "strategies", "resp (s)", ModeOS, "-")/ad, "speedup-adaptive")
		}
		if ad := benchCell(b, res, "strategies", "HT MB/s", ModeAdaptive, "cpu-load"); ad > 0 {
			b.ReportMetric(benchCell(b, res, "strategies", "HT MB/s", ModeOS, "-")/ad, "HT-os/adaptive")
		}
	}
}

// BenchmarkFig18 regenerates Figure 18: the stable-phases workload for
// {OS, Adaptive} x {MonetDB-like, SQL-Server-like}.
func BenchmarkFig18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "fig18", benchConfig())
		for _, engine := range []string{"MonetDB", "SQLServer"} {
			if ad := benchCell(b, res, "runs", "total (s)", "Adaptive/"+engine); ad > 0 {
				b.ReportMetric(benchCell(b, res, "runs", "total (s)", "OS/"+engine)/ad, "speedup-"+strings.ToLower(engine))
			}
		}
	}
}

// BenchmarkFig19MonetDB regenerates Figure 19 (a): per-query speedup and
// HT/IMC ratio for the MonetDB-like engine.
func BenchmarkFig19MonetDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "fig19", benchConfig())
		b.ReportMetric(benchMetric(b, res, "max_speedup"), "max-speedup")
		b.ReportMetric(benchMetric(b, res, "mean_speedup"), "mean-speedup")
		b.ReportMetric(benchMetric(b, res, "max_ratio_improvement"), "max-ratio-x")
	}
}

// BenchmarkFig19SQLServer regenerates Figure 19 (b) for the NUMA-aware
// engine.
func BenchmarkFig19SQLServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := benchConfig()
		c.Placement = db.PlacementNUMAAware
		res := benchRun(b, "fig19", c)
		b.ReportMetric(benchMetric(b, res, "max_speedup"), "max-speedup")
		b.ReportMetric(benchMetric(b, res, "max_ratio_improvement"), "max-ratio-x")
	}
}

// BenchmarkFig20 regenerates Figure 20: per-query CPU and HT energy.
func BenchmarkFig20(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "fig20", benchConfig())
		b.ReportMetric(benchMetric(b, res, "total_savings_pct"), "total-savings-%")
		b.ReportMetric(benchMetric(b, res, "geo_ht_savings_pct"), "ht-savings-%")
	}
}

// BenchmarkOverheadDense, ...Sparse and ...Adaptive regenerate the
// Section V overhead measurement: the cost of one token flow through the
// 5x8 net per allocation mode (paper: dense 0.017 s < sparse 0.021 s <
// adaptive 0.031 s on their prototype; the shape target is the ordering).
func BenchmarkOverheadDense(b *testing.B)    { benchOverhead(b, workload.ModeDense) }
func BenchmarkOverheadSparse(b *testing.B)   { benchOverhead(b, workload.ModeSparse) }
func BenchmarkOverheadAdaptive(b *testing.B) { benchOverhead(b, workload.ModeAdaptive) }

func benchOverhead(b *testing.B, mode workload.Mode) {
	r, err := NewRig(RigOptions{SF: 0.002, Mode: mode})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		r.Engine.Submit(tpch.Build(6, uint64(i)))
	}
	for i := 0; i < 20; i++ {
		r.Sched.Tick()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Mech.Step()
	}
}

// BenchmarkAblationControlPeriod sweeps the mechanism's control period,
// the reaction-latency trade-off ARCHITECTURE.md calls out.
func BenchmarkAblationControlPeriod(b *testing.B) {
	topo := numa.Opteron8387()
	for _, period := range []float64{0.25e-3, 1e-3, 4e-3} {
		b.Run(formatSeconds(period), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := NewRig(RigOptions{
					SF:            0.002,
					Mode:          ModeAdaptive,
					ControlPeriod: topo.SecondsToCycles(period),
				})
				if err != nil {
					b.Fatal(err)
				}
				d := &Driver{Rig: r, QueriesPerClient: 2}
				res := d.RunSameQuery(16, tpch.BuildQ6)
				b.ReportMetric(res.Throughput, "q/s")
			}
		})
	}
}

// BenchmarkAblationThresholds sweeps thmin/thmax (paper: lower thmin
// leaves cores idle; higher thmax causes contention).
func BenchmarkAblationThresholds(b *testing.B) {
	for _, th := range []struct{ min, max int }{{5, 50}, {10, 70}, {20, 90}} {
		b.Run(formatThresholds(th.min, th.max), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := NewRig(RigOptions{
					SF:       0.002,
					Mode:     ModeAdaptive,
					Strategy: elastic.CPULoadStrategy{ThMin: th.min, ThMax: th.max},
				})
				if err != nil {
					b.Fatal(err)
				}
				d := &Driver{Rig: r, QueriesPerClient: 2}
				res := d.RunSameQuery(16, tpch.BuildQ6)
				b.ReportMetric(res.Throughput, "q/s")
			}
		})
	}
}

// BenchmarkAblationPriorityPolicy compares the residency priority queue
// against naive round-robin node selection for the adaptive mode.
func BenchmarkAblationPriorityPolicy(b *testing.B) {
	run := func(b *testing.B, useQueue bool) {
		for i := 0; i < b.N; i++ {
			var opts RigOptions
			opts.SF = 0.002
			if useQueue {
				opts.Mode = ModeAdaptive
			} else {
				opts.Mode = ModeSparse // round-robin next-node order
			}
			r, err := NewRig(opts)
			if err != nil {
				b.Fatal(err)
			}
			d := &Driver{Rig: r, QueriesPerClient: 2}
			res := d.RunSameQuery(16, tpch.BuildQ6)
			b.ReportMetric(res.Window.HTIMCRatio(), "ht/imc")
		}
	}
	b.Run("priority-queue", func(b *testing.B) { run(b, true) })
	b.Run("round-robin", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationCacheBlock sweeps the placement/caching granularity of
// the machine model.
func BenchmarkAblationCacheBlock(b *testing.B) {
	for _, kb := range []int{4, 16, 64} {
		b.Run(formatKB(kb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				topo := numa.Opteron8387()
				topo.BlockBytes = kb * 1024
				r, err := NewRig(RigOptions{SF: 0.002, Mode: ModeAdaptive, Topology: topo})
				if err != nil {
					b.Fatal(err)
				}
				d := &Driver{Rig: r, QueriesPerClient: 2}
				res := d.RunSameQuery(8, tpch.BuildQ6)
				b.ReportMetric(res.Throughput, "q/s")
			}
		})
	}
}

func formatSeconds(s float64) string { return fmt.Sprintf("%.2gms", s*1e3) }

func formatThresholds(min, max int) string { return fmt.Sprintf("th%d-%d", min, max) }

func formatKB(kb int) string { return fmt.Sprintf("%dKiB", kb) }
