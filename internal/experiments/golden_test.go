package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// golden_test.go locks the Result rendering formats across refactors: a
// small fixed-seed fig4 and consolidation run must render byte-identical
// text, JSON and CSV. Regenerate with `go test ./internal/experiments
// -run TestGolden -update` after an intentional format change.

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenConfig is deliberately tiny so the golden runs stay fast, and
// fully pinned so they stay deterministic. The open-loop fields span the
// saturation knee with few arrivals per point.
func goldenConfig() Config {
	return Config{
		SF: 0.002, Clients: 8, Users: []int{1, 2}, Seed: 7, Tenants: 2,
		Loads: []float64{0.25, 1, 2}, OpenArrivals: 60,
		Machines: 8, Shards: 16,
	}
}

// goldenRun executes a registered experiment and strips the
// host-dependent metadata (wall time, build version).
func goldenRun(t *testing.T, name string) *Result {
	t.Helper()
	res, err := runExp(t, name, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	res.Meta.WallTime = 0
	res.Meta.Version = "golden"
	return res
}

func checkGolden(t *testing.T, res *Result, format string) {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Render(&buf, format); err != nil {
		t.Fatal(err)
	}
	ext := format
	if ext == "text" {
		ext = "txt"
	}
	path := filepath.Join("testdata", res.Name+"."+ext+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s %s rendering drifted from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
			res.Name, format, path, buf.String(), want)
	}
}

func TestGoldenFig4(t *testing.T) {
	res := goldenRun(t, "fig4")
	for _, format := range []string{"text", "json", "csv"} {
		checkGolden(t, res, format)
	}
}

func TestGoldenConsolidation(t *testing.T) {
	res := goldenRun(t, "consolidation")
	for _, format := range []string{"text", "json", "csv"} {
		checkGolden(t, res, format)
	}
}

// TestGoldenHTAPMix pins the heterogeneous point-lookup:scan sweep: the
// same seed must submit the same per-slot query classes and render
// byte-identically across all three formats.
func TestGoldenHTAPMix(t *testing.T) {
	res := goldenRun(t, "htap-mix")
	for _, format := range []string{"text", "json", "csv"} {
		checkGolden(t, res, format)
	}
}

// TestHTAPMixSignature asserts the sweep's class structure on the pinned
// golden run: the ratio-0 rows contain no lookups, the ratio-1 rows
// nothing but lookups, and wherever both classes completed, the mean
// point-lookup latency is far below the mean scan latency.
func TestHTAPMixSignature(t *testing.T) {
	res := goldenRun(t, "htap-mix")
	tbl := res.Table("mix")
	if tbl == nil || len(tbl.Rows) == 0 {
		t.Fatal("htap-mix result missing mix table")
	}
	for i := range tbl.Rows {
		ratio, _ := tbl.Float(i, tbl.Col("ratio"))
		lookups, _ := tbl.Int(i, tbl.Col("lookups"))
		scans, _ := tbl.Int(i, tbl.Col("scans"))
		if lookups+scans == 0 {
			t.Errorf("row %d: tenant completed nothing", i)
		}
		if ratio == 0 && lookups != 0 {
			t.Errorf("row %d: ratio 0 completed %d lookups", i, lookups)
		}
		if ratio == 1 && scans != 0 {
			t.Errorf("row %d: ratio 1 completed %d scans", i, scans)
		}
		if lookups > 0 && scans > 0 {
			lkMS, _ := tbl.Float(i, tbl.Col("lookup-ms"))
			scMS, _ := tbl.Float(i, tbl.Col("scan-ms"))
			if lkMS >= scMS {
				t.Errorf("row %d: point lookups (%.3fms) not faster than scans (%.3fms)", i, lkMS, scMS)
			}
		}
	}
}

// TestGoldenLatencyLoad pins the open-loop sweep: same (seed, process,
// load) must render byte-identical histogram percentiles across runs.
func TestGoldenLatencyLoad(t *testing.T) {
	res := goldenRun(t, "latency-load")
	for _, format := range []string{"text", "json", "csv"} {
		checkGolden(t, res, format)
	}
}

// TestGoldenBurstResponse pins the MMPP burst timelines of all three
// allocation policies.
func TestGoldenBurstResponse(t *testing.T) {
	res := goldenRun(t, "burst-response")
	for _, format := range []string{"text", "json", "csv"} {
		checkGolden(t, res, format)
	}
}

// TestLatencyLoadTailDiverges asserts the open-loop signature on the
// pinned golden run: past saturation the p99/p50 ratio must far exceed
// its light-load value, while light-load latency stays queue-free.
func TestLatencyLoadTailDiverges(t *testing.T) {
	res := goldenRun(t, "latency-load")
	minGap, ok1 := res.Metric("p99_p50_gap_min_load")
	peakGap, ok2 := res.Metric("p99_p50_gap_peak")
	if !ok1 || !ok2 {
		t.Fatal("latency-load result missing tail-divergence metrics")
	}
	if peakGap < 10*minGap {
		t.Errorf("p99-p50 gap peaked at %.3fms vs %.3fms at the lightest load; no tail divergence past saturation",
			peakGap, minGap)
	}
	tl := res.Table("latency_load")
	if tl == nil || len(tl.Rows) == 0 {
		t.Fatal("latency-load result missing sweep table")
	}
	wait := tl.Col("wait p99(ms)")
	firstWait, _ := tl.Float(0, wait)
	lastWait, _ := tl.Float(len(tl.Rows)-1, wait)
	if lastWait <= firstWait {
		t.Errorf("queue wait p99 did not grow across the sweep (%.3fms -> %.3fms)", firstWait, lastWait)
	}
}

// TestGoldenScaleOut pins the fleet speedup curve: same seed, same
// shards, same arrival stream must render byte-identically.
func TestGoldenScaleOut(t *testing.T) {
	res := goldenRun(t, "scale-out")
	for _, format := range []string{"text", "json", "csv"} {
		checkGolden(t, res, format)
	}
}

// TestGoldenShardSkew pins the Zipf shard-heat sweep.
func TestGoldenShardSkew(t *testing.T) {
	res := goldenRun(t, "shard-skew")
	for _, format := range []string{"text", "json", "csv"} {
		checkGolden(t, res, format)
	}
}

// TestGoldenRebalanceCost pins the cluster-arbiter migration sweep.
func TestGoldenRebalanceCost(t *testing.T) {
	res := goldenRun(t, "rebalance-cost")
	for _, format := range []string{"text", "json", "csv"} {
		checkGolden(t, res, format)
	}
}

// TestScaleOutSpeedupMonotonic asserts the acceptance criterion on the
// pinned golden run: at fixed offered load, throughput speedup must be
// monotonically non-decreasing from 1 to 8 machines, and 8 machines
// must beat 1 by a real margin.
func TestScaleOutSpeedupMonotonic(t *testing.T) {
	res := goldenRun(t, "scale-out")
	tbl := res.Table("scale_out")
	if tbl == nil || len(tbl.Rows) < 4 {
		t.Fatalf("scale-out table missing or short (%v rows)", tbl)
	}
	prev, speedup := 0.0, tbl.Col("speedup")
	for i := range tbl.Rows {
		m, _ := tbl.Float(i, tbl.Col("machines"))
		s, ok := tbl.Float(i, speedup)
		if !ok {
			t.Fatalf("row %d: no speedup cell", i)
		}
		if s < prev {
			t.Errorf("speedup fell from %.2f to %.2f at %d machines", prev, s, int(m))
		}
		prev = s
	}
	if last, _ := tbl.Float(len(tbl.Rows)-1, speedup); last < 2 {
		t.Errorf("8-machine speedup is %.2fx; scaling out bought almost nothing", last)
	}
}

// TestShardSkewImbalanceGrows asserts the skew signature on the golden
// run: routing imbalance must grow with theta.
func TestShardSkewImbalanceGrows(t *testing.T) {
	res := goldenRun(t, "shard-skew")
	uni, ok1 := res.Metric("imbalance_uniform")
	worst, ok2 := res.Metric("imbalance_max_skew")
	if !ok1 || !ok2 {
		t.Fatal("shard-skew result missing imbalance metrics")
	}
	if worst <= uni {
		t.Errorf("imbalance did not grow with skew: theta=0 %.2fx vs theta=2 %.2fx", uni, worst)
	}
}

// TestRebalanceCostCharges asserts the migration cost model on the
// golden run: cores moved, and dearer migration charged more cycles.
func TestRebalanceCostCharges(t *testing.T) {
	res := goldenRun(t, "rebalance-cost")
	tbl := res.Table("rebalance_cost")
	if tbl == nil || len(tbl.Rows) < 2 {
		t.Fatal("rebalance-cost table missing or short")
	}
	charged := tbl.Col("charged(Mcyc)")
	first, _ := tbl.Float(0, charged)
	last, _ := tbl.Float(len(tbl.Rows)-1, charged)
	moved, _ := tbl.Float(len(tbl.Rows)-1, tbl.Col("moved"))
	if moved == 0 {
		t.Error("no cores moved under the shifting hot shard")
	}
	if last <= first {
		t.Errorf("charged cycles did not grow with migration latency (%.2f -> %.2f Mcyc)", first, last)
	}
}

// TestGoldenFaultTolerance pins the crash-and-recover matchup: same
// seed, same synthesized crash plan, same arrival stream must render
// byte-identically across the three fleet configurations.
func TestGoldenFaultTolerance(t *testing.T) {
	res := goldenRun(t, "fault-tolerance")
	for _, format := range []string{"text", "json", "csv"} {
		checkGolden(t, res, format)
	}
}

// TestGoldenPartialDegradation pins the slow-core and lossy-link sweeps.
func TestGoldenPartialDegradation(t *testing.T) {
	res := goldenRun(t, "partial-degradation")
	for _, format := range []string{"text", "json", "csv"} {
		checkGolden(t, res, format)
	}
}

// TestFaultToleranceSignature asserts the acceptance criteria on the
// pinned golden run: the no-replica baseline sheds during the crash
// window, the replicated+hedged fleet holds its fault-window p99 within
// 3x of pre-fault while shedding less than the baseline, and the fleet
// detects the recovery.
func TestFaultToleranceSignature(t *testing.T) {
	res := goldenRun(t, "fault-tolerance")
	shedStatic, ok := res.Metric("shed_fault_static")
	if !ok || shedStatic == 0 {
		t.Errorf("static baseline shed nothing through the crash window (metric present: %v)", ok)
	}
	shedRep, ok := res.Metric("shed_fault_replicated")
	if !ok {
		t.Fatal("fault-tolerance result missing shed_fault_replicated")
	}
	if shedRep >= shedStatic {
		t.Errorf("replication did not reduce shedding: replicated %v vs static %v", shedRep, shedStatic)
	}
	ratio, ok := res.Metric("p99_fault_over_pre_replicated")
	if !ok {
		t.Fatal("fault-tolerance result missing p99_fault_over_pre_replicated (a phase histogram was empty)")
	}
	if ratio > 3 {
		t.Errorf("replicated+hedged fault-window p99 is %.2fx pre-fault, want <= 3x", ratio)
	}
	if rec, ok := res.Metric("recoveries_replicated"); !ok || rec < 1 {
		t.Errorf("health monitor saw no recovery (metric present: %v, value %v)", ok, rec)
	}
	// Full recovery: the post-window phase completes work again for
	// every configuration.
	tbl := res.Table("phases")
	if tbl == nil || len(tbl.Rows) != 9 {
		t.Fatalf("phases table missing or short: %v", tbl)
	}
	for i := 2; i < len(tbl.Rows); i += 3 {
		if okd, _ := tbl.Float(i, tbl.Col("ok")); okd == 0 {
			t.Errorf("phase row %d: nothing completed in the recovery phase", i)
		}
	}
}

// TestPartialDegradationSignature asserts the impairment signatures on
// the pinned golden run: a 16x slow machine costs tail latency or
// throughput, and a lossy link forces retries.
func TestPartialDegradationSignature(t *testing.T) {
	res := goldenRun(t, "partial-degradation")
	base, ok1 := res.Metric("tput_slow_x1")
	worst, ok2 := res.Metric("tput_slow_max")
	if !ok1 || !ok2 {
		t.Fatal("partial-degradation result missing slow-core throughput metrics")
	}
	slow := res.Table("slow_cores")
	if slow == nil || len(slow.Rows) < 2 {
		t.Fatal("slow_cores table missing or short")
	}
	shedWorst, _ := slow.Float(len(slow.Rows)-1, slow.Col("shed"))
	if worst >= base && shedWorst == 0 {
		t.Errorf("a 16x slow machine cost nothing: tput %.1f vs %.1f q/s, shed %v", worst, base, shedWorst)
	}
	if retried, ok := res.Metric("retried_link_lossy"); !ok || retried == 0 {
		t.Errorf("lossy link forced no retries (metric present: %v, value %v)", ok, retried)
	}
	lossy := res.Table("lossy_link")
	if lossy == nil || len(lossy.Rows) < 2 {
		t.Fatal("lossy_link table missing or short")
	}
	wd, _ := lossy.Float(len(lossy.Rows)-1, lossy.Col("wire_drop"))
	if wd == 0 {
		t.Error("lossy link dropped no messages on the wire")
	}
}

// TestGoldenRunsAreDeterministic guards the premise of the golden files:
// two runs at the same seed render identically.
func TestGoldenRunsAreDeterministic(t *testing.T) {
	a, b := goldenRun(t, "fig4"), goldenRun(t, "fig4")
	var bufA, bufB bytes.Buffer
	if err := a.WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("fig4 runs with identical seeds rendered differently")
	}
}
