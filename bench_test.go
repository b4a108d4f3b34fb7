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
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/elastic"
	"elasticore/internal/experiments"
	"elasticore/internal/numa"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// BenchmarkRunnerBatch exercises the experiment platform end to end: two
// registered experiments resolved from the registry and executed
// concurrently by the worker-pool Runner.
func BenchmarkRunnerBatch(b *testing.B) {
	r := &Runner{Parallel: 2, Config: ExperimentConfig{SF: 0.002, Clients: 8}}
	for i := 0; i < b.N; i++ {
		reports, err := r.RunNames(context.Background(), "fig5", "overhead")
		if err != nil {
			b.Fatal(err)
		}
		for _, rep := range reports {
			if rep.Err != nil {
				b.Fatalf("%s: %v", rep.Name, rep.Err)
			}
		}
	}
}

// benchConfig is the common operating point: large enough for the shapes
// to be stable, small enough for the full suite to finish in minutes.
func benchConfig() experiments.Config {
	return experiments.Config{SF: 0.005, Clients: 32, Users: []int{1, 4, 16, 64}, Seed: 1}
}

// BenchmarkFig04 regenerates Figure 4: Q6 throughput, minor faults/s and
// HT MB/s under increasing concurrency for Dense/C, Sparse/C, OS/C and
// OS/MonetDB.
func BenchmarkFig04(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		users := 64
		mdb, c := res.Row("OS/MonetDB", users), res.Row("OS/C", users)
		if mdb != nil && c != nil && c.HTMBPerS > 0 {
			b.ReportMetric(mdb.HTMBPerS/c.HTMBPerS, "HT-monetdb/C-x")
			b.ReportMetric(mdb.Throughput, "monetdb-q/s")
		}
	}
}

// BenchmarkFig05 regenerates Figures 5 and 6: single-client thread
// migration map and the per-operator tomograph.
func BenchmarkFig05(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Migrations), "migrations")
		b.ReportMetric(float64(res.ParallelTheta), "theta-fanout")
	}
}

// BenchmarkFig07 regenerates Figure 7: PrT state transitions and core
// allocation over a Q6 burst.
func BenchmarkFig07(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.PeakCores), "peak-cores")
		b.ReportMetric(float64(res.Allocations), "allocs")
		b.ReportMetric(float64(res.Releases), "releases")
	}
}

// BenchmarkFig13 regenerates Figure 13: throughput, CPU load, tasks and
// stolen tasks for OS/Dense/Sparse/Adaptive under a concurrency sweep.
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		users := 64
		osRow, ad := res.Row(workload.ModeOS, users), res.Row(workload.ModeAdaptive, users)
		if osRow != nil && ad != nil && osRow.Throughput > 0 {
			b.ReportMetric(ad.Throughput/osRow.Throughput, "tput-adaptive/os")
			if ad.StolenTasks > 0 {
				b.ReportMetric(float64(osRow.StolenTasks)/float64(ad.StolenTasks), "stolen-os/adaptive")
			}
		}
	}
}

// BenchmarkFig14 regenerates Figure 14: per-socket L3 misses, memory
// throughput and HT traffic at the highest concurrency.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig14(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		osRow, ad := res.Row(workload.ModeOS), res.Row(workload.ModeAdaptive)
		if ad.HTGBPerS > 0 {
			b.ReportMetric(osRow.HTGBPerS/ad.HTGBPerS, "HT-os/adaptive")
		}
		b.ReportMetric(float64(ad.TotalL3Misses)/float64(osRow.TotalL3Misses), "L3-adaptive/os")
	}
}

// BenchmarkFig15 regenerates Figure 15: L3 misses across selectivities.
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig15(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		hi := res.Row(workload.ModeOS, 1.0)
		lo := res.Row(workload.ModeOS, 0.02)
		if lo.L3Misses > 0 {
			b.ReportMetric(float64(hi.L3Misses)/float64(lo.L3Misses), "miss-growth-os")
		}
	}
}

// BenchmarkFig16 regenerates Figure 16: migration maps per mode.
func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig16(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Row(workload.ModeOS).NodesTouched), "os-nodes")
		b.ReportMetric(float64(res.Row(workload.ModeAdaptive).NodesTouched), "adaptive-nodes")
	}
}

// BenchmarkFig17 regenerates Figure 17: CPU-load vs HT/IMC strategies.
func BenchmarkFig17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig17(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		osRow := res.Row(workload.ModeOS, "-")
		ad := res.Row(workload.ModeAdaptive, "cpu-load")
		if ad.ResponseSecs > 0 {
			b.ReportMetric(osRow.ResponseSecs/ad.ResponseSecs, "speedup-adaptive")
		}
		if ad.HTMBPerS > 0 {
			b.ReportMetric(osRow.HTMBPerS/ad.HTMBPerS, "HT-os/adaptive")
		}
	}
}

// BenchmarkFig18 regenerates Figure 18: the stable-phases workload for
// {OS, Adaptive} x {MonetDB-like, SQL-Server-like}.
func BenchmarkFig18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig18(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		osRun, adRun := res.Run("OS/MonetDB"), res.Run("Adaptive/MonetDB")
		if adRun.TotalSeconds > 0 {
			b.ReportMetric(osRun.TotalSeconds/adRun.TotalSeconds, "speedup-monetdb")
		}
		osS, adS := res.Run("OS/SQLServer"), res.Run("Adaptive/SQLServer")
		if adS.TotalSeconds > 0 {
			b.ReportMetric(osS.TotalSeconds/adS.TotalSeconds, "speedup-sqlserver")
		}
	}
}

// BenchmarkFig19MonetDB regenerates Figure 19 (a): per-query speedup and
// HT/IMC ratio for the MonetDB-like engine.
func BenchmarkFig19MonetDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig19(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxSpeedup, "max-speedup")
		b.ReportMetric(res.MeanSpeedup, "mean-speedup")
		b.ReportMetric(res.MaxRatioImprovement, "max-ratio-x")
	}
}

// BenchmarkFig19SQLServer regenerates Figure 19 (b) for the NUMA-aware
// engine.
func BenchmarkFig19SQLServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := benchConfig()
		c.Placement = db.PlacementNUMAAware
		res, err := experiments.RunFig19(c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxSpeedup, "max-speedup")
		b.ReportMetric(res.MaxRatioImprovement, "max-ratio-x")
	}
}

// BenchmarkFig20 regenerates Figure 20: per-query CPU and HT energy.
func BenchmarkFig20(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig20(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TotalSavingsPct, "total-savings-%")
		b.ReportMetric(res.GeoHTSavingsPct, "ht-savings-%")
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
		period := period
		b.Run(formatSeconds(period), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := NewRig(RigOptions{
					SF:            0.002,
					Mode:          ModeAdaptive,
					Quantum:       topo.SecondsToCycles(50e-6),
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
		th := th
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
			topo := numa.Opteron8387()
			var opts RigOptions
			opts.SF = 0.002
			if useQueue {
				opts.Mode = ModeAdaptive
			} else {
				opts.Mode = ModeSparse // round-robin next-node order
			}
			opts.Quantum = topo.SecondsToCycles(50e-6)
			opts.ControlPeriod = topo.SecondsToCycles(0.25e-3)
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
		kb := kb
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
