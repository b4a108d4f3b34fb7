package metrics

import (
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Errorf("empty histogram not all-zero: count=%d min=%d max=%d mean=%g",
			h.Count(), h.Min(), h.Max(), h.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %d, want 0", q, got)
		}
	}
}

func TestHistogramSingleSampleIsExact(t *testing.T) {
	for _, v := range []uint64{0, 1, 15, 16, 17, 1000, 123456789, 1 << 62} {
		var h Histogram
		h.Record(v)
		for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
			if got := h.Quantile(q); got != v {
				t.Errorf("single sample %d: Quantile(%g) = %d, want exact", v, q, got)
			}
		}
		if h.Min() != v || h.Max() != v || h.Mean() != float64(v) {
			t.Errorf("single sample %d: min=%d max=%d mean=%g", v, h.Min(), h.Max(), h.Mean())
		}
	}
}

// TestHistogramBucketBoundaries pins the bucketing at the edges of the
// linear region and octave boundaries: exact below histSubCount, and
// bucket-upper rounding (≤ 1/16 relative error) above.
func TestHistogramBucketBoundaries(t *testing.T) {
	// Values below 2*histSubCount map one-to-one: quantiles are exact.
	var h Histogram
	for v := uint64(0); v < 32; v++ {
		h.Record(v)
	}
	if got := h.Quantile(1); got != 31 {
		t.Errorf("linear region Quantile(1) = %d, want 31", got)
	}
	if got := h.Quantile(0.5); got != 15 {
		t.Errorf("linear region Quantile(0.5) = %d, want 15", got)
	}

	// 32 and 33 share a bucket whose upper bound is 33; 34 starts the
	// next bucket.
	var b Histogram
	b.Record(32)
	b.Record(34)
	if got := b.Quantile(0.5); got != 33 {
		t.Errorf("boundary Quantile(0.5) = %d, want bucket upper 33", got)
	}
	if got := b.Quantile(1); got != 34 {
		t.Errorf("boundary Quantile(1) = %d, want exact max 34", got)
	}
}

func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	vals := make([]uint64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := uint64(rng.Int63n(1 << 40))
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(q*float64(len(vals))+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		exact := float64(vals[rank])
		got := float64(h.Quantile(q))
		if rel := (got - exact) / exact; rel < -1.0/16 || rel > 1.0/16 {
			t.Errorf("Quantile(%g) = %g, exact %g, relative error %g beyond ±1/16", q, got, exact, rel)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	for v := uint64(1); v <= 100; v++ {
		if v%2 == 0 {
			a.Record(v * 1000)
		} else {
			b.Record(v * 1000)
		}
		both.Record(v * 1000)
	}
	a.Merge(&b)
	if a.Count() != both.Count() || a.Min() != both.Min() || a.Max() != both.Max() {
		t.Fatalf("merge: count/min/max = %d/%d/%d, want %d/%d/%d",
			a.Count(), a.Min(), a.Max(), both.Count(), both.Min(), both.Max())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Errorf("merge Quantile(%g) = %d, want %d", q, a.Quantile(q), both.Quantile(q))
		}
	}
	// Merging an empty or nil histogram changes nothing.
	before := a.Quantile(0.5)
	var empty Histogram
	a.Merge(&empty)
	a.Merge(nil)
	if a.Quantile(0.5) != before || a.Count() != both.Count() {
		t.Error("merging empty/nil histograms changed state")
	}
}

// TestHistogramMergeCrossMachine is the cluster-tier property: one value
// stream scattered across 16 per-machine histograms (the way the
// Coordinator scatters queries) and rolled up with Merge must agree with
// a single fleet-wide histogram exactly, and with the true sample
// quantiles within the structural ±1/16 relative-error bound — merging
// loses no resolution, however unevenly the stream splits.
func TestHistogramMergeCrossMachine(t *testing.T) {
	const machines = 16
	rng := rand.New(rand.NewSource(77))
	per := make([]Histogram, machines)
	var whole Histogram
	vals := make([]uint64, 0, 30000)
	for i := 0; i < 30000; i++ {
		v := uint64(rng.Int63n(1<<44)) + 1
		// Skewed split: machine m receives ~2x the traffic of machine
		// m+1, like a hot shard — Merge must not care.
		m := 0
		for u := rng.Float64(); u < 0.5 && m < machines-1; u = rng.Float64() {
			m++
		}
		per[m].Record(v)
		whole.Record(v)
		vals = append(vals, v)
	}
	var merged Histogram
	for m := range per {
		merged.Merge(&per[m])
	}
	if merged.Count() != whole.Count() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merged count/min/max = %d/%d/%d, want %d/%d/%d",
			merged.Count(), merged.Min(), merged.Max(),
			whole.Count(), whole.Min(), whole.Max())
	}
	// The sums accumulate in different orders, so the means agree only up
	// to float rounding.
	if rel := (merged.Mean() - whole.Mean()) / whole.Mean(); rel < -1e-12 || rel > 1e-12 {
		t.Fatalf("merged mean %g drifted from %g", merged.Mean(), whole.Mean())
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Errorf("merged Quantile(%g) = %d, single histogram says %d",
				q, merged.Quantile(q), whole.Quantile(q))
		}
		rank := int(q*float64(len(vals))+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		exact := float64(vals[rank])
		got := float64(merged.Quantile(q))
		if rel := (got - exact) / exact; rel < -1.0/16 || rel > 1.0/16 {
			t.Errorf("merged Quantile(%g) = %g, exact %g, relative error %g beyond ±1/16",
				q, got, exact, rel)
		}
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(12345)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Error("Reset left state behind")
	}
	h.Record(7)
	if h.Quantile(1) != 7 {
		t.Error("histogram unusable after Reset")
	}
}

func TestHistogramRecordDoesNotAllocate(t *testing.T) {
	var h Histogram
	v := uint64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v = v*1664525 + 1013904223
	})
	if allocs != 0 {
		t.Fatalf("Record allocated %v times per call, want 0", allocs)
	}
}

// TestHistogramQuantilesMatchQuantile pins the batch accessor to the
// per-quantile API: for any mix of distributions and any (unsorted,
// duplicated, clamped) quantile list, Quantiles must return exactly what
// Quantile returns per entry — it is the same walk, done once.
func TestHistogramQuantilesMatchQuantile(t *testing.T) {
	distributions := map[string]func(h *Histogram){
		"empty":  func(h *Histogram) {},
		"single": func(h *Histogram) { h.Record(42) },
		"uniform": func(h *Histogram) {
			for v := uint64(1); v <= 5000; v++ {
				h.Record(v)
			}
		},
		"lcg-wide": func(h *Histogram) {
			v := uint64(1)
			for i := 0; i < 4096; i++ {
				v = v*6364136223846793005 + 1442695040888963407
				h.Record(v >> (v % 48))
			}
		},
	}
	qs := []float64{0.99, 0, 0.5, 0.5, 1, 0.9, 0.01, -0.5, 1.5}
	for name, fill := range distributions {
		var h Histogram
		fill(&h)
		got := h.Quantiles(qs...)
		if len(got) != len(qs) {
			t.Fatalf("%s: Quantiles returned %d values for %d inputs", name, len(got), len(qs))
		}
		for i, q := range qs {
			if want := h.Quantile(q); got[i] != want {
				t.Errorf("%s: Quantiles(...)[%d] (q=%g) = %d, want Quantile = %d", name, i, q, got[i], want)
			}
		}
	}
}

// TestHistogramQuantilesEmptyArgs: no quantiles requested, no work done.
func TestHistogramQuantilesEmptyArgs(t *testing.T) {
	var h Histogram
	h.Record(5)
	if got := h.Quantiles(); len(got) != 0 {
		t.Fatalf("Quantiles() = %v, want empty", got)
	}
}

// TestHistogramQuantilesOneAlloc: the returned slice is the call's only
// allocation; ranking and ordering the requests happens on the stack.
func TestHistogramQuantilesOneAlloc(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Record(v)
	}
	var sink uint64
	allocs := testing.AllocsPerRun(200, func() { sink += h.Quantiles(0.99, 0.50)[0] })
	if allocs != 1 {
		t.Fatalf("Quantiles allocated %v times per call, want 1 (the result)", allocs)
	}
	_ = sink
}

// TestHistogramVersionCountsMutations: Version moves on every Record,
// Merge and Reset — Reset does not rewind it, so a refill to the same
// count is a different version — and on nothing that only reads.
func TestHistogramVersionCountsMutations(t *testing.T) {
	var h, o Histogram
	seen := map[uint64]bool{h.Version(): true}
	moved := func(what string) {
		t.Helper()
		if v := h.Version(); seen[v] {
			t.Fatalf("%s: version %d was served before", what, v)
		} else {
			seen[v] = true
		}
	}
	h.Record(5)
	moved("record")
	o.Record(9)
	h.Merge(&o)
	moved("merge")
	h.Reset()
	moved("reset")
	h.Record(5)
	moved("record after reset")
	h.Record(5)
	moved("refill to the earlier count")
	before := h.Version()
	h.Merge(nil)
	h.Merge(&Histogram{})
	_, _, _ = h.Quantile(0.5), h.Quantiles(0.5, 0.99), h.Mean()
	if h.Version() != before {
		t.Fatalf("reads and empty merges moved the version from %d to %d", before, h.Version())
	}
}
