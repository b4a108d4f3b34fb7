package metrics

import (
	"math"
	"math/bits"
)

// histogram.go implements the latency histogram behind the open-loop
// experiments: log-bucketed (HDR style) so 64-bit cycle counts are
// covered by a fixed array, recording is allocation-free, and two
// histograms merge by bucket addition (per-tenant histograms roll up
// into machine-wide percentiles).

const (
	// histSubBits sets the linear resolution inside each power of two:
	// 2^4 = 16 sub-buckets, bounding the relative quantile error at
	// 1/16 ≈ 6.25%.
	histSubBits  = 4
	histSubCount = 1 << histSubBits
	// histBucketCount covers the full uint64 range: values below
	// histSubCount map exactly, every further octave contributes
	// histSubCount buckets.
	histBucketCount = (64 - histSubBits + 1) * histSubCount
)

// Histogram is a fixed-size log-bucketed value histogram. Values are
// unsigned integers in any unit (the drivers record simulated cycles);
// quantiles come back in the same unit with at most 1/16 relative error,
// clamped to the exactly tracked min and max. The zero value is an empty
// histogram ready for use; Record never allocates.
type Histogram struct {
	counts   [histBucketCount]uint64
	count    uint64
	sum      float64
	min, max uint64
	// version counts mutations (see Version); Reset does not rewind it.
	version uint64
}

// histBucket maps a value to its bucket index: values below histSubCount
// map one-to-one, larger values by (octave, linear sub-bucket).
func histBucket(v uint64) int {
	exp := bits.Len64(v|1) - 1
	if exp < histSubBits {
		return int(v)
	}
	return (exp-histSubBits+1)<<histSubBits | int((v>>(uint(exp)-histSubBits))&(histSubCount-1))
}

// histUpper returns the largest value mapping into bucket i.
func histUpper(i int) uint64 {
	block := i >> histSubBits
	if block == 0 {
		return uint64(i)
	}
	sub := uint64(i & (histSubCount - 1))
	return ((histSubCount + sub + 1) << uint(block-1)) - 1
}

// Record adds one observation.
func (h *Histogram) Record(v uint64) {
	h.version++
	h.counts[histBucket(v)]++
	h.count++
	h.sum += float64(v)
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Version changes whenever Record, Merge or Reset changes the histogram
// and never repeats, so what a reader derived from the buckets holds while
// it reads the same Version (unlike Count, which Reset and refill repeat).
func (h *Histogram) Version() uint64 { return h.version }

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the arithmetic mean of the recorded values (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the q-quantile (q in [0, 1]) as the upper bound of the
// bucket holding the rank-⌈q·count⌉ observation, clamped to the exact
// [min, max]. An empty histogram returns 0; a single-sample histogram
// returns that sample exactly.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= rank {
			v := histUpper(i)
			if v < h.min {
				return h.min
			}
			if v > h.max {
				return h.max
			}
			return v
		}
	}
	return h.max
}

// Quantiles returns the quantile for each q in qs (each in [0, 1]) from
// a single walk over the buckets, agreeing exactly with Quantile per
// entry, so reporting several percentiles does not re-scan the bucket
// array per percentile. The qs need not be sorted; an empty histogram
// returns all zeros.
func (h *Histogram) Quantiles(qs ...float64) []uint64 {
	out := make([]uint64, len(qs))
	if h.count == 0 || len(qs) == 0 {
		return out
	}
	// Rank each quantile, then resolve them in ascending-rank order while
	// cumulating buckets once. pos keeps the caller's order. Callers ask
	// for a handful of quantiles, so an insertion sort into a stack array
	// orders them without sort.Slice's closure and swapper allocations.
	type want struct {
		rank uint64
		pos  int
	}
	var buf [8]want
	wants := buf[:0]
	for i, q := range qs {
		rank := uint64(math.Ceil(q * float64(h.count)))
		if rank < 1 {
			rank = 1
		}
		if rank > h.count {
			rank = h.count
		}
		wants = append(wants, want{})
		j := i
		for ; j > 0 && wants[j-1].rank > rank; j-- {
			wants[j] = wants[j-1]
		}
		wants[j] = want{rank: rank, pos: i}
	}
	clamp := func(v uint64) uint64 {
		if v < h.min {
			return h.min
		}
		if v > h.max {
			return h.max
		}
		return v
	}
	var cum uint64
	next := 0
	for i := range h.counts {
		cum += h.counts[i]
		for next < len(wants) && cum >= wants[next].rank {
			out[wants[next].pos] = clamp(histUpper(i))
			next++
		}
		if next == len(wants) {
			return out
		}
	}
	for ; next < len(wants); next++ {
		out[wants[next].pos] = h.max
	}
	return out
}

// P50, P90 and P99 are the conventional latency percentiles.
func (h *Histogram) P50() uint64 { return h.Quantile(0.50) }
func (h *Histogram) P90() uint64 { return h.Quantile(0.90) }
func (h *Histogram) P99() uint64 { return h.Quantile(0.99) }

// Merge adds every observation of o into h (bucket-wise, exact).
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	h.version++
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Reset empties the histogram in place without allocating.
func (h *Histogram) Reset() {
	h.counts = [histBucketCount]uint64{}
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
	h.version++
}
