package db

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"elasticore/internal/hashmix"
	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// diff_test.go is the differential harness of the vectorized operator
// layer: every Operator is driven standalone through Next with
// SplitMix64-randomized batch sizes and compared against a row-at-a-time
// reference implementation written independently of the kernels. The
// assertions are exact — identical output values AND identical charged
// compute cycles — across fixed seeds, randomized sizes/selectivities
// and the degenerate inputs (empty, single row, all-match, none-match).

var diffSeeds = []uint64{1, 7, 42}

// tableForms are the two forms every join and group case runs in: a table
// nobody sized stays in hash form, one sized from its keys' bounds (as
// BuildMap, GroupSum and GroupMerge size theirs) is positional. Outputs
// and Charged() must not depend on the form.
var tableForms = []struct {
	name       string
	positional bool
}{{"hash", false}, {"positional", true}}

// sizeFor puts m into the wanted form for keys within [lo, hi].
func sizeFor[V int64 | float64](t *testing.T, m *keyTable[V], positional bool, lo, hi int64, member bool) {
	t.Helper()
	if positional && lo <= hi && !m.tryPositional(lo, hi, int(hi-lo)+1, member) {
		t.Fatalf("a table over [%d, %d] is not positional", lo, hi)
	}
}

// diffRNG is a SplitMix64 stream for deterministic randomized inputs.
type diffRNG struct{ hashmix.Stream }

func newDiffRNG(seed uint64) *diffRNG {
	return &diffRNG{hashmix.Stream{State: seed*2654435761 + 1}}
}

func (r *diffRNG) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Next() % uint64(n))
}

func (r *diffRNG) f64() float64 { return float64(r.Next()>>11) / float64(1<<53) }

// diffSizes are the input cardinalities every operator case runs at:
// empty, single row, small, and a randomized mid-size batch.
func diffSizes(r *diffRNG) []int {
	return []int{0, 1, 13, 64 + r.intn(200)}
}

// drain drives op to exhaustion with randomized Next sizes, returning
// every output value in emission order.
func drain(op Operator, r *diffRNG) (oi []int64, of []float64) {
	for {
		b := op.Next(1 + r.intn(17))
		if b == nil {
			return oi, of
		}
		oi = b.appendI64(oi) // a dense batch is written out
		of = append(of, b.F...)
	}
}

func eqI64(t *testing.T, label string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: value %d = %d, want %d", label, i, got[i], want[i])
		}
	}
}

func eqF64(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: value %d = %g, want %g", label, i, got[i], want[i])
		}
	}
}

func eqCycles(t *testing.T, label string, op Operator, want uint64) {
	t.Helper()
	if got := op.Charged(); got != want {
		t.Fatalf("%s: charged %d cycles, want %d", label, got, want)
	}
}

// genI64 returns n values in [0, span).
func genI64(r *diffRNG, n, span int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(r.intn(span))
	}
	return out
}

func genF64(r *diffRNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

// genCand returns a sorted random subset of rows [0, n) as OIDs.
func genCand(r *diffRNG, n int) []int64 {
	var out []int64
	for i := 0; i < n; i++ {
		if r.intn(3) > 0 {
			out = append(out, int64(i))
		}
	}
	return out
}

// diffPred pairs an engine predicate with an independent row test.
type diffPred struct {
	name string
	kind Kind
	p    Pred
	refI func(v int64) bool
	refF func(v float64) bool
}

func diffPreds() []diffPred {
	return []diffPred{
		{"irange", KindI64, PredIRange(20, 60), func(v int64) bool { return v >= 20 && v < 60 }, nil},
		{"ieq", KindI64, PredIEq(5), func(v int64) bool { return v == 5 }, nil},
		{"iin", KindI64, PredIIn(1, 2, 3), func(v int64) bool { return v == 1 || v == 2 || v == 3 }, nil},
		{"iall", KindI64, PredAll(), func(int64) bool { return true }, nil},
		{"inone", KindI64, PredIEq(-1), func(int64) bool { return false }, nil},
		{"ine", KindI64, PredINe(5), func(v int64) bool { return v != 5 }, nil},
		{"frange", KindF64, PredFRange(0.2, 0.6), nil, func(v float64) bool { return v >= 0.2 && v <= 0.6 }},
		{"fless", KindF64, PredFLess(0.3), nil, func(v float64) bool { return v < 0.3 }},
		{"fall", KindF64, PredFRange(-1, 2), nil, func(v float64) bool { return v >= -1 && v <= 2 }},
		{"fnone", KindF64, PredFLess(-1), nil, func(v float64) bool { return v < -1 }},
	}
}

// predColumn builds a column of the predicate's kind.
func predColumn(r *diffRNG, pd diffPred, n int) *BAT {
	if pd.kind == KindI64 {
		return NewI64("c", genI64(r, n, 100))
	}
	return NewF64("c", genF64(r, n))
}

func refMatch(pd diffPred, col *BAT, row int) bool {
	if pd.kind == KindI64 {
		return pd.refI(col.I[row])
	}
	return pd.refF(col.F[row])
}

func TestDiffFilterScan(t *testing.T) {
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		for _, size := range diffSizes(r) {
			for _, pd := range diffPreds() {
				col := predColumn(r, pd, size)
				// Full range and a strict sub-range.
				for _, rng := range [][2]int{{0, size}, {size / 3, size - size/3}} {
					lo, hi := rng[0], rng[1]
					if hi < lo {
						hi = lo
					}
					var want []int64
					for i := lo; i < hi; i++ {
						if refMatch(pd, col, i) {
							want = append(want, int64(i))
						}
					}
					op := NewFilterScan(col, pd.p, lo, hi, nil)
					got, _ := drain(op, r)
					label := pd.name
					eqI64(t, label, got, want)
					eqCycles(t, label, op, uint64(hi-lo)*cyclesScan)
				}
			}
		}
	}
}

func TestDiffFilterRefine(t *testing.T) {
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		for _, size := range diffSizes(r) {
			for _, pd := range diffPreds() {
				col := predColumn(r, pd, size)
				cand := NewI64("cand", genCand(r, size))
				var want []int64
				for _, oid := range cand.I {
					if refMatch(pd, col, int(oid)) {
						want = append(want, oid)
					}
				}
				op := NewFilterRefine(col, pd.p, cand, nil)
				got, _ := drain(op, r)
				eqI64(t, pd.name, got, want)
				eqCycles(t, pd.name, op, uint64(cand.Len())*cyclesGather)
			}
		}
	}
}

func TestDiffGather(t *testing.T) {
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		for _, size := range diffSizes(r) {
			cand := NewI64("cand", genCand(r, size))
			// Integer column.
			colI := NewI64("ci", genI64(r, size, 1000))
			wantI := make([]int64, 0, cand.Len())
			for _, oid := range cand.I {
				wantI = append(wantI, colI.I[oid])
			}
			opI := NewGather(colI, cand, NewI64("out", nil))
			gotI, _ := drain(opI, r)
			eqI64(t, "gather-i64", gotI, wantI)
			eqCycles(t, "gather-i64", opI, uint64(cand.Len())*cyclesGather)
			// Float column.
			colF := NewF64("cf", genF64(r, size))
			wantF := make([]float64, 0, cand.Len())
			for _, oid := range cand.I {
				wantF = append(wantF, colF.F[oid])
			}
			opF := NewGather(colF, cand, NewF64("out", nil))
			_, gotF := drain(opF, r)
			eqF64(t, "gather-f64", gotF, wantF)
			eqCycles(t, "gather-f64", opF, uint64(cand.Len())*cyclesGather)
		}
	}
}

func TestDiffMapBinary(t *testing.T) {
	f := func(x, y float64) float64 { return x*y + 1 }
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		for _, size := range diffSizes(r) {
			a := NewF64("a", genF64(r, size))
			b := NewF64("b", genF64(r, size))
			want := make([]float64, size)
			for i := range want {
				want[i] = f(a.F[i], b.F[i])
			}
			op := NewMapBinary(a, b, f, nil)
			_, got := drain(op, r)
			eqF64(t, "map2", got, want)
			eqCycles(t, "map2", op, uint64(size)*cyclesMap)
		}
	}
}

func TestDiffSumAgg(t *testing.T) {
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		for _, size := range diffSizes(r) {
			in := NewF64("v", genF64(r, size))
			want := 0.0
			for _, v := range in.F {
				want += v
			}
			op := NewSumAgg(in)
			_, got := drain(op, r)
			// The sum arrives as exactly one final value, even on empty
			// input (sum 0).
			eqF64(t, "sum", got, []float64{want})
			eqCycles(t, "sum", op, uint64(size)*cyclesSum)
		}
	}
}

func TestDiffHashBuild(t *testing.T) {
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		for _, size := range diffSizes(r) {
			keys := NewI64("k", genI64(r, size, size/2+1)) // forced duplicates
			cases := []struct {
				name string
				vals *BAT
			}{
				{"membership", nil},
				{"payload-i64", NewI64("v", genI64(r, size, 1000))},
				{"payload-f64", NewF64("v", genF64(r, size))},
			}
			for _, tc := range cases {
				want := map[int64]int64{}
				for i, k := range keys.I {
					payload := int64(1)
					if tc.vals != nil {
						if tc.vals.Kind == KindI64 {
							payload = tc.vals.I[i]
						} else {
							payload = int64(tc.vals.F[i])
						}
					}
					want[k] = payload
				}
				for _, form := range tableForms {
					label := tc.name + "/" + form.name
					set := &i64Map{}
					lo, hi := keys.widen(noKeys())
					sizeFor(t, set, form.positional, lo, hi, tc.vals == nil)
					op := NewHashBuild(keys, tc.vals, set)
					got, _ := drain(op, r)
					eqI64(t, label, got, []int64{int64(len(want))})
					if (set.span > 0) != (form.positional && size > 0) {
						t.Fatalf("%s: built in the wrong form (span %d)", label, set.span)
					}
					checkTable(t, label, set, want)
					eqCycles(t, label, op, uint64(size)*cyclesBuild)
				}
			}
		}
	}
}

func TestDiffHashProbe(t *testing.T) {
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		for _, size := range diffSizes(r) {
			col := NewI64("c", genI64(r, size, 72))
			cand := NewI64("cand", genCand(r, size))
			// Build keys lie in [lo, hi]; the column's values spill over both
			// ends, and hi = 63 puts the last slot at the end of a bitmap
			// word.
			sets := []struct {
				name   string
				lo, hi int64
				pay    func(k int64) int64
			}{
				{"mixed", 8, 40, func(k int64) int64 { return k * 10 }},
				{"all-match", 0, 63, func(k int64) int64 { return k }},
				{"to-word-end", 20, 63, func(k int64) int64 { return -k }},
				{"bitmap", 3, 50, func(int64) int64 { return 1 }},
				{"none-match", 0, -1, nil},
			}
			for _, sc := range sets {
				for _, mode := range []struct {
					name        string
					anti, fetch bool
				}{{"semi", false, false}, {"anti", true, false}, {"fetch", false, true}, {"anti-fetch", true, true}} {
					want := map[int64]int64{}
					for k := sc.lo; k <= sc.hi; k++ {
						if k%3 != 1 {
							want[k] = sc.pay(k)
						}
					}
					var wantIDs, wantPays []int64
					for _, oid := range cand.I {
						payload, hit := want[col.I[oid]]
						if hit == mode.anti {
							continue
						}
						wantIDs = append(wantIDs, oid)
						if mode.fetch {
							wantPays = append(wantPays, payload)
						}
					}
					var charged uint64
					for _, form := range tableForms {
						label := sc.name + "/" + mode.name + "/" + form.name
						set := &i64Map{}
						sizeFor(t, set, form.positional, sc.lo, sc.hi, sc.name == "bitmap")
						for k := sc.lo; k <= sc.hi; k++ {
							if v, ok := want[k]; ok {
								set.Put(k, v)
							}
						}
						if (set.span > 0) != (form.positional && sc.lo <= sc.hi) {
							t.Fatalf("%s: probing the wrong form (span %d)", label, set.span)
						}
						op := NewHashProbe(col, cand, set, mode.anti, mode.fetch, nil, nil)
						got, _ := drain(op, r)
						eqI64(t, label, got, wantIDs)
						if mode.fetch {
							eqI64(t, label+" payloads", op.Payloads(), wantPays)
						}
						eqCycles(t, label, op, uint64(cand.Len())*cyclesProbe)
						if form.positional {
							eqCycles(t, label+" vs hash", op, charged)
						}
						charged = op.Charged()
					}
				}
			}
		}
	}
}

func TestDiffGroupAgg(t *testing.T) {
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		for _, size := range diffSizes(r) {
			keys := NewI64("k", genI64(r, size, size/4+1))
			for _, tc := range []struct {
				name string
				vals *BAT
			}{
				{"count", nil},
				{"sum", NewF64("v", genF64(r, size))},
				{"int", NewI64("v", genI64(r, size, 9))},
				{"short", NewF64("v", genF64(r, size/2))}, // the rows past the values count 1
			} {
				want := map[int64]float64{}
				for i, k := range keys.I {
					v := 1.0
					switch {
					case tc.vals == nil || i >= tc.vals.Len():
					case tc.vals.Kind == KindF64:
						v = tc.vals.F[i]
					default:
						v = float64(tc.vals.I[i])
					}
					want[k] += v
				}
				wantKeys := make([]int64, 0, len(want))
				for k := range want {
					wantKeys = append(wantKeys, k)
				}
				sort.Slice(wantKeys, func(a, b int) bool { return wantKeys[a] < wantKeys[b] })

				wantSums := make([]float64, len(wantKeys))
				for i, k := range wantKeys {
					wantSums[i] = want[k]
				}
				for _, form := range tableForms {
					label := tc.name + "/" + form.name
					agg := &i64fMap{}
					lo, hi := keys.widen(noKeys())
					sizeFor(t, agg, form.positional, lo, hi, false)
					op := NewGroupAgg(keys, tc.vals, agg)
					got, _ := drain(op, r)
					eqI64(t, label, got, wantKeys)
					if (agg.span > 0) != (form.positional && size > 0) {
						t.Fatalf("%s: grouped in the wrong form (span %d)", label, agg.span)
					}
					consumed := uint64(size) * cyclesGroup
					eqCycles(t, label, op, consumed)

					gk, gs := op.Finalize()
					eqI64(t, label+" finalize keys", gk, wantKeys)
					eqF64(t, label+" finalize sums", gs, wantSums)
					// Finalize charges the engine's merge formula on top.
					eqCycles(t, label+" finalized", op,
						consumed+uint64(agg.Len())*cyclesGroup+uint64(len(gk))*cyclesSort)
				}
			}
		}
	}
}

// refTopN is an independent stable top-n: repeatedly scan for the
// leftmost strictly-largest remaining sum.
func refTopN(sums []float64, n int) []int {
	taken := make([]bool, len(sums))
	if n > len(sums) {
		n = len(sums)
	}
	if n < 0 {
		n = 0
	}
	out := make([]int, 0, n)
	for len(out) < n {
		best := -1
		for i := range sums {
			if taken[i] {
				continue
			}
			if best == -1 || sums[i] > sums[best] {
				best = i
			}
		}
		taken[best] = true
		out = append(out, best)
	}
	return out
}

// TestDiffSortLimit is the differential of algebra.topn: the ranking
// (topNIndex) against the selection-sort reference, and the OpTopN stage
// planned and stepped on an engine — the keys and sums it leaves bound, and
// the cycles it charges.
func TestDiffSortLimit(t *testing.T) {
	rig := newOpRig(t)
	ctx := &sched.ExecContext{Machine: rig.machine, PID: 9}
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		for _, size := range diffSizes(r) {
			keys := NewI64("k", genI64(r, size, 10000))
			// Sums from a tiny value set force ties, so stable ranking is
			// actually exercised.
			sumVals := genI64(r, size, 4)
			sums := make([]float64, size)
			for i, v := range sumVals {
				sums[i] = float64(v)
			}
			sumsBAT := NewF64("s", sums)
			for _, n := range []int{0, 1, 3, size, size + 7} {
				idx := refTopN(sums, n)
				wantKeys := make([]int64, len(idx))
				wantSums := make([]float64, len(idx))
				for i, j := range idx {
					wantKeys[i] = keys.I[j]
					wantSums[i] = sums[j]
				}
				if got := topNIndex(sums, n); !slices.Equal(got, idx) {
					t.Fatalf("topn rank: got %v, want %v", got, idx)
				}
				q := planningQuery(rig.eng)
				q.SetVar("k", &PartSet{Parts: []*BAT{keys}})
				q.SetVar("s", &PartSet{Parts: []*BAT{sumsBAT}})
				op := TopN("k", "s", n)
				tasks := planOp(q, &op)
				if len(tasks) != 1 {
					t.Fatalf("topn planned %d tasks, want 1", len(tasks))
				}
				used, done := tasks[0].Step(ctx, 1<<40)
				eqI64(t, "topn keys", q.Var("k").FlattenI64(), wantKeys)
				eqF64(t, "topn sums", q.Var("s").FlattenF64(), wantSums)
				if !done || used != uint64(size)*cyclesSort {
					t.Fatalf("topn: charged %d cycles (done %v), want %d", used, done, uint64(size)*cyclesSort)
				}
			}
		}
	}
}

// refProbeCount re-derives the bisection probe count for one key: the
// halving steps of the [lo, hi) search, which is what the operator and
// the OpLookup stage both charge (+1 for the final fetch).
func refProbeCount(keys []int64, key int64) int {
	count := 0
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		count++
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return count
}

func TestDiffLookup(t *testing.T) {
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		for _, size := range diffSizes(r) {
			// Sorted unique keys with gaps, so absent probes exist between
			// present ones.
			keys := make([]int64, size)
			next := int64(0)
			for i := range keys {
				next += int64(1 + r.intn(3))
				keys[i] = next
			}
			keyBAT := NewI64("k", keys)
			valF := NewF64("v", genF64(r, size))
			valI := NewI64("v", genI64(r, size, 1000))

			probeSets := map[string][]int64{
				"empty":  nil,
				"single": {next / 2},
				"mixed":  nil,
			}
			var mixed []int64
			for i := 0; i < size; i++ {
				if r.intn(2) == 0 {
					mixed = append(mixed, keys[r.intn(size)]) // present
				} else {
					mixed = append(mixed, int64(r.intn(int(next)+3))-1) // maybe absent
				}
			}
			mixed = append(mixed, -5, next+100) // below min, above max
			probeSets["mixed"] = mixed

			for name, probes := range probeSets {
				for _, val := range []*BAT{valF, valI} {
					var wantI []int64
					var wantF []float64
					wantFound, wantCycles := 0, uint64(0)
					for _, key := range probes {
						wantCycles += uint64(refProbeCount(keys, key)+1) * cyclesProbe
						row := -1
						for i, k := range keys {
							if k == key {
								row = i
								break
							}
						}
						if row < 0 {
							continue
						}
						wantFound++
						if val.Kind == KindI64 {
							wantI = append(wantI, val.I[row])
						} else {
							wantF = append(wantF, val.F[row])
						}
					}
					op := NewLookup(keyBAT, val, probes)
					gotI, gotF := drain(op, r)
					eqI64(t, name, gotI, wantI)
					eqF64(t, name, gotF, wantF)
					if op.Found != wantFound {
						t.Fatalf("%s: found %d keys, want %d", name, op.Found, wantFound)
					}
					eqCycles(t, name, op, wantCycles)
				}
			}
		}
	}
}

func TestDiffFusedQ6(t *testing.T) {
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		for _, size := range diffSizes(r) {
			sd := make([]int64, size)
			for i := range sd {
				sd[i] = int64(19960101 + r.intn(40000))
			}
			qty := make([]float64, size)
			dis := make([]float64, size)
			pr := make([]float64, size)
			for i := 0; i < size; i++ {
				qty[i] = float64(r.intn(50))
				dis[i] = float64(r.intn(11)) / 100
				pr[i] = 100 + float64(r.intn(900))
			}
			shipdate, quantity := NewI64("sd", sd), NewF64("q", qty)
			discount, price := NewF64("d", dis), NewF64("p", pr)
			for _, rng := range [][2]int{{0, size}, {size / 4, size / 2}} {
				lo, hi := rng[0], rng[1]
				want := 0.0
				for i := lo; i < hi; i++ {
					if sd[i] >= 19970101 && sd[i] < 19980101 &&
						dis[i] >= 0.06 && dis[i] <= 0.08 && qty[i] < 24 {
						want += pr[i] * dis[i]
					}
				}
				op := NewFusedQ6(shipdate, quantity, discount, price, lo, hi)
				_, got := drain(op, r)
				eqF64(t, "q6", got, []float64{want})
				if op.Revenue() != want {
					t.Fatalf("q6: revenue %g, want %g", op.Revenue(), want)
				}
				eqCycles(t, "q6", op, uint64(hi-lo)*cyclesScan)
			}
		}
	}
}

// TestDiffNextZero pins the n <= 0 contract: before exhaustion the batch
// is non-nil and empty, and nothing is charged.
func TestDiffNextZero(t *testing.T) {
	col := NewI64("c", []int64{1, 2, 3})
	ops := []Operator{
		NewFilterScan(col, PredAll(), 0, 3, nil),
		NewFilterRefine(col, PredAll(), NewI64("cand", []int64{0, 1}), nil),
		NewFilterRefine(col, PredIEq(2), newDense("cand", 1, 2), nil),
		NewGather(col, NewI64("cand", []int64{0, 1}), NewI64("out", nil)),
		NewGather(col, newDense("cand", 0, 2), NewI64("out", nil)),
		NewMapBinary(NewF64("a", []float64{1}), NewF64("b", []float64{2}), func(x, y float64) float64 { return x + y }, nil),
		NewSumAgg(NewF64("v", []float64{1, 2})),
		NewHashBuild(col, nil, &i64Map{}),
		NewHashProbe(col, NewI64("cand", []int64{0}), &i64Map{}, false, false, nil, nil),
		NewHashProbe(col, newDense("cand", 0, 3), &i64Map{}, true, false, nil, nil),
		NewGroupAgg(col, nil, &i64fMap{}),
		NewLookup(col, NewF64("v", []float64{1, 2, 3}), []int64{2}),
		NewFusedQ6(NewI64("sd", []int64{19970201}), NewF64("q", []float64{1}), NewF64("d", []float64{0.07}), NewF64("p", []float64{100}), 0, 1),
	}
	for _, op := range ops {
		for _, n := range []int{0, -3} {
			b := op.Next(n)
			if b == nil {
				t.Fatalf("%s: Next(%d) before exhaustion returned nil", op.Op(), n)
			}
			if b.Len() != 0 {
				t.Fatalf("%s: Next(%d) produced %d values", op.Op(), n, b.Len())
			}
		}
		if op.Charged() != 0 {
			t.Fatalf("%s: charged %d cycles for zero-size batches", op.Op(), op.Charged())
		}
	}
}

// identity materializes the dense range [lo, lo+n) the way the seed's
// ScanAll did: the oracle form of a dense candidate.
func identity(lo, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(lo + i)
	}
	return out
}

// TestDiffDenseCandidate drives every candidate consumer over a dense
// range and over the equivalent materialized identity vector: outputs and
// charged cycles must be identical, for every predicate form, both gather
// kinds and all three probe modes, including empty ranges, sub-ranges that
// end at the column's last row and the engine drive's "b past the end".
func TestDiffDenseCandidate(t *testing.T) {
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		for _, size := range diffSizes(r) {
			for _, rng := range [][2]int{{0, size}, {size / 3, size - size/3}, {size / 2, size / 2}, {size - size/4, size}} {
				lo, n := rng[0], max(0, rng[1]-rng[0])
				dense, vec := newDense("cand", lo, n), NewI64("cand", identity(lo, n))
				if dense.Len() != vec.Len() || dense.Bytes() != vec.Bytes() {
					t.Fatalf("dense [%d,+%d): Len/Bytes %d/%d, want %d/%d", lo, n, dense.Len(), dense.Bytes(), vec.Len(), vec.Bytes())
				}
				// Both operators of a pair are drained with the same batch
				// sizes.
				drive := func(label string, opD, opV Operator) {
					t.Helper()
					batchSeed := r.Next()
					gotI, gotF := drain(opD, newDiffRNG(batchSeed))
					wantI, wantF := drain(opV, newDiffRNG(batchSeed))
					eqI64(t, label, gotI, wantI)
					eqF64(t, label, gotF, wantF)
					eqCycles(t, label, opD, opV.Charged())
				}
				for _, pd := range diffPreds() {
					col := predColumn(r, pd, size)
					drive("refine/"+pd.name, NewFilterRefine(col, pd.p, dense, nil), NewFilterRefine(col, pd.p, vec, nil))
					// The engine drive hands whole chunks: b may overshoot.
					frD, frV := NewFilterRefine(col, pd.p, dense, nil), NewFilterRefine(col, pd.p, vec, nil)
					frD.runRange(0, n+5)
					frV.runRange(0, n+5)
					eqI64(t, "refine-overshoot/"+pd.name, frD.ids, frV.ids)
				}
				colI, colF := NewI64("ci", genI64(r, size, 1000)), NewF64("cf", genF64(r, size))
				drive("gather-i64", NewGather(colI, dense, NewI64("out", nil)), NewGather(colI, vec, NewI64("out", nil)))
				drive("gather-f64", NewGather(colF, dense, NewF64("out", nil)), NewGather(colF, vec, NewF64("out", nil)))
				gD, gV := NewGather(colF, dense, NewF64("out", nil)), NewGather(colF, vec, NewF64("out", nil))
				gD.runRange(0, n+5)
				gV.runRange(0, n+5)
				eqF64(t, "gather-overshoot", gD.out.F, gV.out.F)

				keyCol := NewI64("k", genI64(r, size, 50))
				for _, form := range tableForms {
					set := &i64Map{}
					sizeFor(t, set, form.positional, 0, 24, false)
					for v := int64(0); v < 25; v++ {
						set.Put(v, v*10)
					}
					for _, mode := range []struct {
						name        string
						anti, fetch bool
					}{{"semi", false, false}, {"anti", true, false}, {"fetch", false, true}} {
						label := mode.name + "/" + form.name
						probe := func(cand *BAT) *HashProbe {
							return NewHashProbe(keyCol, cand, set, mode.anti, mode.fetch, nil, nil)
						}
						hD, hV := probe(dense), probe(vec)
						drive("probe/"+label, hD, hV)
						eqI64(t, "probe-payloads/"+label, hD.Payloads(), hV.Payloads())
						hD, hV = probe(dense), probe(vec)
						hD.runRange(0, n+5)
						hV.runRange(0, n+5)
						eqI64(t, "probe-overshoot/"+label, hD.ids, hV.ids)
						eqI64(t, "probe-overshoot-payloads/"+label, hD.payloads, hV.payloads)
					}
				}

				// Result extraction and aggr.count.
				psD := &PartSet{Parts: []*BAT{NewI64("head", []int64{-1}), dense}}
				psV := &PartSet{Parts: []*BAT{NewI64("head", []int64{-1}), vec}}
				eqI64(t, "flatten", psD.FlattenI64(), psV.FlattenI64())
				if psD.Rows() != psV.Rows() {
					t.Fatalf("count over dense = %d, want %d", psD.Rows(), psV.Rows())
				}
				eqI64(t, "values", (&PartSet{Parts: []*BAT{dense}}).valuesI64(), vec.I)
			}
		}
	}
}

// TestDenseCandidateReadByPosition: a dense candidate list used where a
// value vector is expected (join keys, payloads, group keys — legal in
// hand-written StageFn plans) behaves as its materialized form.
func TestDenseCandidateReadByPosition(t *testing.T) {
	dense, vec := newDense("c", 7, 40), NewI64("c", identity(7, 40))
	sD, sV := &i64Map{}, &i64Map{}
	bD, bV := NewHashBuild(dense, dense, sD), NewHashBuild(vec, vec, sV)
	r := newDiffRNG(3)
	drain(bD, r)
	drain(bV, r)
	aD, aV := &i64fMap{}, &i64fMap{}
	gD, gV := NewGroupAgg(dense, dense, aD), NewGroupAgg(vec, vec, aV)
	drain(gD, r)
	drain(gV, r)
	for _, k := range vec.I {
		if got, ok := sD.Get(k); !ok || got != k {
			t.Fatalf("build over dense keys: key %d = (%d, %v)", k, got, ok)
		}
		if got, _ := aD.Get(k); got != float64(k) {
			t.Fatalf("group over dense keys: key %d sums to %g", k, got)
		}
	}
	if sD.Len() != sV.Len() || aD.Len() != aV.Len() {
		t.Fatalf("table sizes %d/%d, want %d/%d", sD.Len(), aD.Len(), sV.Len(), aV.Len())
	}
	eqCycles(t, "build", bD, bV.Charged())
	eqCycles(t, "group", gD, gV.Charged())
}

// TestDiffSortPairs checks the group merge's key/value radix sort against
// a comparison sort: negative, zero, huge and duplicate keys, values
// carried along, duplicates kept in input order.
func TestDiffSortPairs(t *testing.T) {
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		for _, size := range append(diffSizes(r), 3000) {
			for _, span := range []int{1, 3, 70000, 1 << 40} {
				ks := make([]int64, size)
				vs := make([]float64, size)
				type pair struct {
					k int64
					v float64
				}
				want := make([]pair, size)
				for i := range ks {
					ks[i] = int64(r.intn(span)) - int64(span/2)
					if r.intn(16) == 0 {
						ks[i] = int64(r.Next()) // any 64-bit pattern
					}
					vs[i] = float64(i)
					want[i] = pair{ks[i], vs[i]}
				}
				sort.SliceStable(want, func(a, b int) bool { return want[a].k < want[b].k })
				gotK, gotV, _, _ := sortPairs(ks, vs, make([]int64, size), make([]float64, size))
				for i, w := range want {
					if gotK[i] != w.k || gotV[i] != w.v {
						t.Fatalf("size %d span %d: pair %d = (%d, %g), want (%d, %g)", size, span, i, gotK[i], gotV[i], w.k, w.v)
					}
				}
			}
		}
	}
}

// planningQuery returns a query of e that no scheduler runs: the context a
// test plans stages in and steps their tasks by hand. Its body is a spare
// one of e's when e has one.
func planningQuery(e *Engine) *Query {
	return &Query{Plan: &Plan{Name: "by-hand"}, queryBody: e.body()}
}

// TestDiffEngineDrive is the differential of the engine drive. Every
// chunked kind's lowering plans its slab and the tasks are stepped with
// SplitMix64-random budgets — well below a chunk's cost (the debt path),
// around it (a quantum ending mid-partition) and far above it — beside the
// closure lowering the slab replaced (refStage, dense_test.go), itself
// lowered through refPred, on two identical machines. After every Step the
// cycles used, the completion flag and every counter of the machine must
// agree: an AccessRange call's cost and side effects depend on the cache,
// placement and congestion state its predecessors left, so a call that is
// missing, added, reordered or over another range shows there. At the end
// so must every variable (values, fragment sizes, simulated regions),
// scalar and group partial.
func TestDiffEngineDrive(t *testing.T) {
	mul := func(x, y float64) float64 { return x * y }
	type step struct {
		fast OpSpec
		ref  refStage // nil: a single-task stage, the same on both sides
	}
	sel := func(table, col, out string, p Pred) step {
		return step{Scan(table, col, out, p), refThetaSelect(table, col, out, p)}
	}
	sub := func(in, col, out string, p Pred) step {
		return step{Refine(in, "lineitem", col, out, p), refSubSelect(in, "lineitem", col, out, p)}
	}
	proj := func(in, col, out string) step {
		return step{Project(in, "lineitem", col, out), refProjection(in, "lineitem", col, out)}
	}
	steps := []step{
		sel("lineitem", "l_shipdate", "all", PredAll()),
		sel("lineitem", "l_extendedprice", "cheap", PredFLess(300)),
		sel("lineitem", "l_orderkey", "most", PredINe(17)),
		sel("tiny", "k", "few", PredIRange(3, 40)),                     // one partition, shorter than a chunk
		sub("all", "l_shipdate", "r1", PredIRange(19970101, 19980101)), // dense candidates
		sub("cheap", "l_discount", "r2", PredFRange(0.02, 0.08)),
		sub("most", "l_quantity", "r3", PredFRange(20.5, math.Inf(1))),
		sub("r2", "l_orderkey", "none", PredIEq(-1)), // every partition empties
		sub("r1", "l_orderkey", "same", PredAll()),
		proj("r1", "l_orderkey", "k"),
		proj("r1", "l_extendedprice", "p"),
		proj("r1", "l_discount", "d"),
		proj("all", "l_quantity", "qty"), // a view of the base column
		proj("none", "l_discount", "nothing"),
		{Map2("p", "d", "rev", MapMul), refMapF2("p", "d", "rev", mul)},
		{Map2("nothing", "nothing", "nil2", MapMul), refMapF2("nothing", "nothing", "nil2", mul)},
		{Sum("rev", "total"), refSumF("rev", "total")},
		{Sum("qty", "units"), refSumF("qty", "units")},
		proj("cheap", "l_orderkey", "ck"),
		proj("cheap", "l_shipdate", "cd"),
		{fast: Build("ck", "cd", "seen")},
		{ProbeSemi("all", "lineitem", "l_orderkey", "seen", "hit"), refProbe("all", "lineitem", "l_orderkey", "seen", "hit", "", false)},
		{ProbeAnti("r3", "lineitem", "l_orderkey", "seen", "miss"), refProbe("r3", "lineitem", "l_orderkey", "seen", "miss", "", true)},
		{ProbeFetch("r1", "lineitem", "l_orderkey", "seen", "got", "when"), refProbe("r1", "lineitem", "l_orderkey", "seen", "got", "when", false)},
		{ProbeFetch("none", "lineitem", "l_orderkey", "seen", "got0", "when0"), refProbe("none", "lineitem", "l_orderkey", "seen", "got0", "when0", false)},
		{GroupSum("k", "rev", "g1"), refGroupSum("k", "rev", "g1")},
		{GroupSum("k", "", "g2"), refGroupSum("k", "", "g2")},
		{GroupSum("all", "qty", "g3"), refGroupSum("all", "qty", "g3")}, // dense candidates as keys
		{fast: GroupMerge("g1", "gk", "gs")},
	}
	type side struct {
		m   *numa.Machine
		q   *Query
		ctx sched.ExecContext
	}
	for _, seed := range diffSeeds {
		mk := func() *side {
			r := newSpecRigRows(t, 30000)
			eng, err := NewEngine(r.store, Config{Scheduler: r.sched, PID: 101, Fanout: 4, MinPartRows: 64, ParseCycles: -1})
			if err != nil {
				t.Fatal(err)
			}
			return &side{m: r.machine, q: planningQuery(eng), ctx: sched.ExecContext{Machine: r.machine, PID: 101}}
		}
		fast, ref := mk(), mk()
		r := newDiffRNG(seed)
		budget := func() uint64 {
			switch r.intn(4) {
			case 0:
				return 300 + uint64(r.intn(3000))
			case 1:
				return 5000 + uint64(r.intn(40000))
			case 2:
				return 100000 + uint64(r.intn(400000))
			}
			return 1 << 40
		}
		type stepper interface {
			Step(ctx *sched.ExecContext, budget uint64) (uint64, bool)
		}
		for si, st := range steps {
			var fts, rts []stepper
			for _, tk := range planOp(fast.q, &st.fast) {
				if _, slab := tk.(*chunkTask); slab != (st.ref != nil) {
					t.Fatalf("seed %d stage %d: a chunked stage must plan chunkTasks, a single-task stage none", seed, si)
				}
				fts = append(fts, tk)
			}
			if st.ref == nil {
				for _, tk := range planOp(ref.q, &st.fast) {
					rts = append(rts, tk)
				}
			} else {
				for _, tk := range st.ref(ref.q) {
					rts = append(rts, tk)
				}
			}
			if len(fts) != len(rts) {
				t.Fatalf("seed %d stage %d: %d tasks, reference %d", seed, si, len(fts), len(rts))
			}
			for ti := range fts {
				fast.ctx.Core = numa.CoreID((si + 3*ti) % fast.m.Topology().TotalCores())
				ref.ctx.Core = fast.ctx.Core
				for n := 0; ; n++ {
					b := budget()
					uf, df := fts[ti].Step(&fast.ctx, b)
					ur, dr := rts[ti].Step(&ref.ctx, b)
					if uf != ur || df != dr {
						t.Fatalf("seed %d stage %d task %d step %d (budget %d): used %d done %v, reference %d %v", seed, si, ti, n, b, uf, df, ur, dr)
					}
					if !reflect.DeepEqual(fast.m.Snapshot(), ref.m.Snapshot()) {
						t.Fatalf("seed %d stage %d task %d step %d: numa counters differ from the reference", seed, si, ti, n)
					}
					if df {
						break
					}
				}
			}
		}
		if !reflect.DeepEqual(fast.q.scalars, ref.q.scalars) || fast.q.Scalar("total") == 0 {
			t.Errorf("seed %d: scalars %v, reference %v", seed, fast.q.scalars, ref.q.scalars)
		}
		if len(fast.q.vars) != len(ref.q.vars) {
			t.Fatalf("seed %d: %d variables, reference %d", seed, len(fast.q.vars), len(ref.q.vars))
		}
		for name, ps := range fast.q.vars {
			want := ref.q.Var(name)
			if len(ps.Parts) != len(want.Parts) {
				t.Fatalf("seed %d: %s has %d fragments, reference %d", seed, name, len(ps.Parts), len(want.Parts))
			}
			for i, frag := range ps.Parts {
				w := want.Parts[i]
				label := fmt.Sprintf("seed %d: %s[%d]", seed, name, i)
				if frag.Name != w.Name || frag.Kind != w.Kind || frag.placed != w.placed || frag.start != w.start {
					t.Fatalf("%s: header (%s, kind %d, region %v@%d), reference (%s, kind %d, region %v@%d)",
						label, frag.Name, frag.Kind, frag.placed, frag.start, w.Name, w.Kind, w.placed, w.start)
				}
				eqI64(t, label, frag.appendI64(nil), w.appendI64(nil))
				eqF64(t, label, frag.F, w.F)
			}
		}
		for name, parts := range fast.q.partials {
			for i, m := range parts {
				w := ref.q.partialsOf(name)[i]
				if (m == nil) != (w == nil) {
					t.Fatalf("seed %d: partial %s[%d] bound on one side only", seed, name, i)
				}
				if m != nil {
					gk, gs, _, _ := sortedGroups(m, nil, nil, heapPairs)
					wk, ws, _, _ := sortedGroups(w, nil, nil, heapPairs)
					eqI64(t, name, gk, wk)
					eqF64(t, name, gs, ws)
				}
			}
		}
		if fast.q.Var("none").Rows() != 0 || fast.q.Var("hit").Rows() == 0 || fast.q.Var("when").Rows() == 0 {
			t.Fatalf("seed %d: the pipeline lost the cases it is there for", seed)
		}
	}
}

// TestDiffJoinedOutputs is the differential of the join (beside.go). The
// three selection operators an engine runs as jobs — FilterScan,
// FilterRefine and HashProbe in every mode — compute their survivors into
// scratch, on a helper or at the join, and the join copies them into one
// buffer of an engine's pool, which is stocked with poisoned buffers of
// random small sizes. Outputs must equal the row-at-a-time reference's and
// the standalone drive's, which grows through growFor, wherever the job
// ran; each output must sit in one buffer the pool lent, whose poison it
// never shows. Once the final buffers are returned, the pool must be at
// rest: every buffer back, none filed twice.
func TestDiffJoinedOutputs(t *testing.T) {
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		eng := &Engine{}
		stockPool(&eng.pool, seed, 64, 700)
		// engineJoin runs k as a job, on a helper every other time, checks
		// what it joined against want and the standalone twin, then hands
		// the final buffers back to the pool.
		joins := 0
		engineJoin := func(label string, k jobKernel, alone Operator, final func() [][]int64, want []int64, cycles uint64) {
			t.Helper()
			task := &chunkTask{}
			task.job.k, task.job.eng = k, eng
			if eng.handoff = handoffNone; joins%2 == 1 {
				eng.handoff = handoffAll
				handOff([]Task{task})
			}
			joins++
			lent := eng.pool.lent
			task.job.join()
			aloneGot, _ := drain(alone, r)
			eqI64(t, label+" standalone", aloneGot, want)
			eqCycles(t, label+" standalone", alone, cycles)
			bufs := final()
			eqI64(t, label, bufs[0], want)
			held := 0 // an empty output draws no storage
			for _, buf := range bufs {
				if len(buf) > 0 {
					held++
				}
			}
			if got := eng.pool.lent - lent; got != held {
				t.Fatalf("%s: the join lent %d buffers for %d outputs", label, got, held)
			}
			for _, buf := range bufs {
				eng.pool.putI64(buf)
			}
		}
		for _, size := range []int{0, 1, 13, 300 + r.intn(3000)} {
			for _, pd := range diffPreds() {
				col := predColumn(r, pd, size)
				var wantScan []int64
				for i := 0; i < size; i++ {
					if refMatch(pd, col, i) {
						wantScan = append(wantScan, int64(i))
					}
				}
				fs := NewFilterScan(col, pd.p, 0, size, nil)
				engineJoin(pd.name+"/scan", fs, NewFilterScan(col, pd.p, 0, size, nil),
					func() [][]int64 { return [][]int64{fs.ids} }, wantScan, uint64(size)*cyclesScan)

				cand := NewI64("cand", genCand(r, size))
				var wantRefine []int64
				for _, oid := range cand.I {
					if refMatch(pd, col, int(oid)) {
						wantRefine = append(wantRefine, oid)
					}
				}
				fr := NewFilterRefine(col, pd.p, cand, nil)
				engineJoin(pd.name+"/refine", fr, NewFilterRefine(col, pd.p, cand, nil),
					func() [][]int64 { return [][]int64{fr.ids} }, wantRefine, uint64(cand.Len())*cyclesGather)
			}
			col := NewI64("c", genI64(r, size, 72))
			cand := NewI64("cand", genCand(r, size))
			set := &i64Map{}
			for k := int64(8); k <= 40; k += 2 {
				set.Put(k, 10*k)
			}
			for _, mode := range []struct {
				name        string
				anti, fetch bool
			}{{"semi", false, false}, {"anti", true, false}, {"fetch", false, true}, {"anti-fetch", true, true}} {
				var wantIDs, wantPays []int64
				for _, oid := range cand.I {
					payload, hit := set.Get(col.I[oid])
					if hit != mode.anti {
						wantIDs = append(wantIDs, oid)
						wantPays = append(wantPays, payload)
					}
				}
				hp := NewHashProbe(col, cand, set, mode.anti, mode.fetch, nil, nil)
				alone := NewHashProbe(col, cand, set, mode.anti, mode.fetch, nil, nil)
				engineJoin("probe/"+mode.name, hp, alone, func() [][]int64 {
					if !mode.fetch {
						return [][]int64{hp.ids}
					}
					eqI64(t, "probe/"+mode.name+" payloads", hp.Payloads(), wantPays)
					eqI64(t, "probe/"+mode.name+" standalone payloads", alone.Payloads(), wantPays)
					return [][]int64{hp.ids, hp.payloads}
				}, wantIDs, uint64(cand.Len())*cyclesProbe)
			}
		}
		if err := poolAtRest(eng); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDiffRecycledSteps is the engine drive's differential of the recycler
// (recycle.go): Q6 over eight parameter combinations, three passes, each
// query planned stage by stage and its tasks stepped with SplitMix64-random
// budgets, on an engine that recycles its selections and on an identical
// one whose recycler is cleared before every query. After every Step the
// cycles used, the done flag and every counter of the machine must agree:
// a replayed partition charges each chunk as the computed one does, in the
// same budget increments. Every variable must agree at the end of each
// query, and the third pass must replay every selection: the quantity
// bounds are low, so that all 14 lineages fit the budget of an eighth of
// the rig's five columns.
func TestDiffRecycledSteps(t *testing.T) {
	var specs []PlanSpec
	for _, qty := range []float64{3, 4} {
		for _, year := range []int64{1996, 1997} {
			for _, d := range []float64{0.03, 0.06} {
				specs = append(specs, spec("Q6",
					Scan("lineitem", "l_quantity", "X_1", PredFLess(qty)),
					Refine("X_1", "lineitem", "l_shipdate", "X_2", PredIRange(year*10000+101, (year+1)*10000+101)),
					Refine("X_2", "lineitem", "l_discount", "X_3", PredFRange(d-0.01, d+0.01)),
					Project("X_3", "lineitem", "l_extendedprice", "X_4"),
					Project("X_3", "lineitem", "l_discount", "X_5"),
					Map2("X_4", "X_5", "X_6", MapMul),
					Sum("X_6", "revenue"),
				))
			}
		}
	}
	type side struct {
		m   *numa.Machine
		eng *Engine
		ctx sched.ExecContext
	}
	for _, seed := range diffSeeds {
		mk := func() *side {
			r := newDBRig(t, 30000, PlacementOS)
			eng, err := NewEngine(r.store, Config{Scheduler: r.sched, PID: 101, Fanout: 4, MinPartRows: 64, ParseCycles: -1})
			if err != nil {
				t.Fatal(err)
			}
			return &side{m: r.machine, eng: eng, ctx: sched.ExecContext{Machine: r.machine, PID: 101}}
		}
		rec, comp := mk(), mk()
		r := newDiffRNG(seed)
		budget := func() uint64 {
			switch r.intn(3) {
			case 0:
				return 300 + uint64(r.intn(3000))
			case 1:
				return 5000 + uint64(r.intn(40000))
			}
			return 1 << 40
		}
		for pass := 1; pass <= 3; pass++ {
			selections, replays, _ := rec.eng.rec.counts()
			for si, sp := range specs {
				comp.eng.rec = nil
				rq, cq := planningQuery(rec.eng), planningQuery(comp.eng)
				for oi := range sp.Ops {
					rts, cts := planOp(rq, &sp.Ops[oi]), planOp(cq, &sp.Ops[oi])
					if len(rts) != len(cts) {
						t.Fatalf("seed %d pass %d query %d op %d: %d tasks, computed %d", seed, pass, si, oi, len(rts), len(cts))
					}
					for ti := range rts {
						rec.ctx.Core = numa.CoreID((oi + 3*ti) % rec.m.Topology().TotalCores())
						comp.ctx.Core = rec.ctx.Core
						for n := 0; ; n++ {
							b := budget()
							ur, dr := rts[ti].Step(&rec.ctx, b)
							uc, dc := cts[ti].Step(&comp.ctx, b)
							if ur != uc || dr != dc {
								t.Fatalf("seed %d pass %d query %d op %d task %d step %d (budget %d): used %d done %v, computed %d %v", seed, pass, si, oi, ti, n, b, ur, dr, uc, dc)
							}
							if !reflect.DeepEqual(rec.m.Snapshot(), comp.m.Snapshot()) {
								t.Fatalf("seed %d pass %d query %d op %d task %d step %d: numa counters differ from the computed run", seed, pass, si, oi, ti, n)
							}
							if dr {
								break
							}
						}
					}
				}
				if rq.Scalar("revenue") != cq.Scalar("revenue") || rq.Scalar("revenue") == 0 {
					t.Fatalf("seed %d pass %d query %d: revenue %v, computed %v", seed, pass, si, rq.Scalar("revenue"), cq.Scalar("revenue"))
				}
				for name, ps := range rq.vars {
					want := cq.Var(name)
					for i, frag := range ps.Parts {
						w := want.Parts[i]
						label := fmt.Sprintf("seed %d pass %d query %d: %s[%d]", seed, pass, si, name, i)
						if frag.placed != w.placed || frag.start != w.start {
							t.Fatalf("%s: region %v@%d, computed %v@%d", label, frag.placed, frag.start, w.placed, w.start)
						}
						eqI64(t, label, frag.appendI64(nil), w.appendI64(nil))
						eqF64(t, label, frag.F, w.F)
					}
				}
				releaseByHand(rec.eng, rq)
				releaseByHand(comp.eng, cq)
			}
			if s, rp, _ := rec.eng.rec.counts(); pass == 3 && (s-selections != 3*len(specs) || rp-replays != 3*len(specs)) {
				t.Fatalf("seed %d: the third pass replayed %d of %d selections", seed, rp-replays, s-selections)
			}
		}
		for _, e := range []*Engine{rec.eng, comp.eng} {
			if err := poolAtRest(e); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// sampleIDs returns n distinct ascending ids drawn from [0, rows).
func sampleIDs(r *diffRNG, n, rows int) []int64 {
	out := make([]int64, 0, n)
	for i := 0; i < rows && len(out) < n; i++ {
		if r.intn(rows-i) < n-len(out) {
			out = append(out, int64(i))
		}
	}
	return out
}

// TestDiffViewsReadAsCopies is the differential of views (BAT.viewOf, vec):
// MapBinary, SumAgg and GroupAgg reading their inputs as views of base
// columns — through a sparse candidate list, a dense one and a replayed
// list the recycler keeps — and widen's bounds and result extraction over
// the same views must give what they give over the gathered copies. The
// candidate lists run from empty through the lengths that straddle the
// strip size to the whole column; each kernel runs whole (a job's
// compute), chunk by chunk in uneven steps (the engine drive's runRange)
// and standalone (Next), which must charge the cycles of the copy's drive.
func TestDiffViewsReadAsCopies(t *testing.T) {
	f := func(x, y float64) float64 { return x*y - y }
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		const rows = 5*stripRows + 3
		keyCol := NewI64("k", genI64(r, rows, 97))
		price, disc := NewF64("p", genF64(r, rows)), NewF64("d", genF64(r, rows))
		for _, n := range []int{0, 1, stripRows - 1, stripRows, stripRows + 1, 2*stripRows + 17, rows} {
			ids := sampleIDs(r, n, rows)
			kept := append([]int64{-1, -1}, ids...) // a recycler's array: offsets, then lists
			lo := r.intn(rows - n + 1)
			forms := []struct {
				name string
				cand *BAT
			}{
				{"sparse", NewI64("cand", ids)},
				{"replayed", &BAT{Name: "cand", Kind: KindI64, I: kept[2 : 2+n : 2+n], view: true}},
				{"dense", newDense("cand", lo, n)},
			}
			for _, form := range forms {
				label := fmt.Sprintf("seed %d %s[%d]", seed, form.name, n)
				cand := form.cand
				view := func(c *BAT) vec {
					v := &BAT{Name: c.Name, Kind: c.Kind}
					v.viewOf(c, cand)
					return vec{v, c}
				}
				gathered := func(c *BAT) vec {
					out := &BAT{Name: c.Name, Kind: c.Kind}
					NewGather(c, cand, out).runRange(0, cand.Len())
					return vec{BAT: out}
				}
				vk, vp, vd := view(keyCol), view(price), view(disc)
				ck, cp, cd := gathered(keyCol), gathered(price), gathered(disc)
				if !vk.view || vk.sparse != (cand.n == 0) || vk.Len() != n || vp.Len() != n {
					t.Fatalf("%s: views of %d rows read %d and %d (view %v, sparse %v)", label, n, vk.Len(), vp.Len(), vk.view, vk.sparse)
				}
				eqI64(t, label+" flatten", (&PartSet{Parts: []*BAT{vk.BAT}, col: keyCol}).FlattenI64(), ck.I)
				eqF64(t, label+" flatten", (&PartSet{Parts: []*BAT{vp.BAT}, col: price}).FlattenF64(), cp.F)
				if got := (&PartSet{Parts: []*BAT{vp.BAT}, col: price}).FlattenI64(); len(got) != 0 {
					t.Fatalf("%s: a float view flattens to %d integers", label, len(got))
				}
				vlo, vhi := vk.widen(noKeys())
				clo, chi := ck.widen(noKeys())
				if vlo != clo || vhi != chi {
					t.Fatalf("%s: widen gives [%d, %d], the copy [%d, %d]", label, vlo, vhi, clo, chi)
				}

				// chunked runs k over [0, n) in uneven steps across strips.
				chunked := func(run func(a, b int)) {
					for a := 0; a < n; {
						b := min(n, a+1+r.intn(2*stripRows))
						run(a, b)
						a = b
					}
				}
				batchSeed := r.Next()
				standalone := func(what string, v, c Operator) {
					t.Helper()
					gotI, gotF := drain(v, newDiffRNG(batchSeed))
					wantI, wantF := drain(c, newDiffRNG(batchSeed))
					eqI64(t, label+" "+what+" standalone", gotI, wantI)
					eqF64(t, label+" "+what+" standalone", gotF, wantF)
					eqCycles(t, label+" "+what+" standalone", v, c.Charged())
				}

				want := NewMapBinary(cp.BAT, cd.BAT, f, nil)
				want.compute(nil)
				whole, steps := &MapBinary{a: vp, b: vd, f: f}, &MapBinary{a: vp, b: vd, f: f}
				whole.compute(nil)
				chunked(steps.runRange)
				eqF64(t, label+" map2", whole.res, want.res)
				eqF64(t, label+" map2 chunked", steps.res, want.res)
				standalone("map2", &MapBinary{a: vp, b: vd, f: f}, NewMapBinary(cp.BAT, cd.BAT, f, nil))

				sum, sumSteps, sumWant := &SumAgg{in: vp}, &SumAgg{in: vp}, NewSumAgg(cp.BAT)
				sum.compute(nil)
				chunked(sumSteps.runRange)
				sumWant.compute(nil)
				if sum.partial != sumWant.partial || sumSteps.partial != sumWant.partial {
					t.Fatalf("%s: sum %g, chunked %g, the copy %g", label, sum.partial, sumSteps.partial, sumWant.partial)
				}
				standalone("sum", &SumAgg{in: vp}, NewSumAgg(cp.BAT))

				for _, vals := range []struct {
					name string
					v, c vec
				}{{"sum", vp, cp}, {"count", vec{}, vec{}}, {"int", vk, ck}} {
					what := "group/" + vals.name
					mk := func(keys, v vec) *GroupAgg {
						m := &i64fMap{}
						klo, khi := keys.widen(noKeys())
						m.tryPositional(klo, khi, keys.Len(), false)
						return &GroupAgg{keys: keys, vals: v, agg: m}
					}
					g, gSteps, gWant := mk(vk, vals.v), mk(vk, vals.v), mk(ck, vals.c)
					if g.agg.span != gWant.agg.span || g.agg.base != gWant.agg.base {
						t.Fatalf("%s %s: a table sized from the view spans %d from %d, from the copy %d from %d", label, what, g.agg.span, g.agg.base, gWant.agg.span, gWant.agg.base)
					}
					g.compute(nil)
					chunked(gSteps.runRange)
					gWant.compute(nil)
					wk, ws, _, _ := sortedGroups(gWant.agg, nil, nil, heapPairs)
					for _, got := range []*GroupAgg{g, gSteps} {
						gk, gs, _, _ := sortedGroups(got.agg, nil, nil, heapPairs)
						eqI64(t, label+" "+what, gk, wk)
						eqF64(t, label+" "+what, gs, ws)
					}
					standalone(what, mk(vk, vals.v), mk(ck, vals.c))
				}
			}
		}
	}
}

// TestDiffViewsInTheEngine is the engine drive's differential of views: one
// plan, stepped stage by stage with SplitMix64-random budgets, as the engine
// lowers it (its projections that only Map2, Sum, GroupSum and Count read
// are views, the candidate lists under them live on until the last of
// those reads, every job goes to a helper) and on an identical engine with
// no death masks, where every sparse projection is gathered and nothing is
// freed. The plan projects through a sparse list whose last direct reader
// is a projection, and draws a selection's storage before the views over it
// are read, through a dense list, through a list whose every partition is
// empty and, from the third pass on, through replayed lists.
// After every Step the cycles used, the done flag and every counter of the
// machine must agree, after every pass every result, and in the end both
// pools must be at rest.
func TestDiffViewsInTheEngine(t *testing.T) {
	sp := spec("views",
		Scan("lineitem", "l_extendedprice", "cheap", PredFLess(300)),
		Refine("cheap", "lineitem", "l_orderkey", "none", PredIEq(-1)),
		ScanAll("lineitem", "l_shipdate", "all"),
		Refine("all", "lineitem", "l_discount", "some", PredFRange(0.02, 0.05)),
		Project("cheap", "lineitem", "l_orderkey", "k"),
		Project("cheap", "lineitem", "l_extendedprice", "p"),
		Project("cheap", "lineitem", "l_discount", "d"),
		Map2("p", "d", "rev", MapMulComplement),
		Project("cheap", "lineitem", "l_quantity", "q"), // the last direct read of cheap
		// A selection of about cheap's size: had cheap's lists gone back
		// to the pool, its join would draw them and write over them.
		Scan("lineitem", "l_extendedprice", "again", PredFLess(290)),
		Count("again", "n"),
		GroupSum("k", "rev", "g1"),
		Sum("q", "units"), // cheap dies here, under q
		Project("all", "lineitem", "l_quantity", "aq"),
		Project("all", "lineitem", "l_orderkey", "ak"),
		GroupSum("ak", "aq", "g2"),
		Project("none", "lineitem", "l_discount", "nd"),
		Sum("nd", "nothing"),
		Count("nd", "nrows"),
		Project("some", "lineitem", "l_shipdate", "sk"),
		Project("some", "lineitem", "l_extendedprice", "sp"),
		GroupSum("sk", "sp", "g3"),
		GroupMerge("g1", "gk1", "gs1"),
		GroupMerge("g2", "gk2", "gs2"),
		GroupMerge("g3", "gk3", "gs3"),
	)
	plan := sp.Lower()
	if len(ViewListDeaths(plan)) == 0 {
		t.Fatal("no candidate list of the plan outlives its last direct reader")
	}
	type side struct {
		m   *numa.Machine
		eng *Engine
		ctx sched.ExecContext
	}
	for _, seed := range diffSeeds {
		mk := func() *side {
			r := newDBRig(t, 30000, PlacementOS)
			eng, err := NewEngine(r.store, Config{Scheduler: r.sched, PID: 101, Fanout: 4, MinPartRows: 64, ParseCycles: -1})
			if err != nil {
				t.Fatal(err)
			}
			stockPool(&eng.pool, seed, 64, 1<<13)
			return &side{m: r.machine, eng: eng, ctx: sched.ExecContext{Machine: r.machine, PID: 101}}
		}
		views, copies := mk(), mk()
		SetHandoff(views.eng, HandoffAll)
		r := newDiffRNG(seed)
		budget := func() uint64 {
			switch r.intn(3) {
			case 0:
				return 300 + uint64(r.intn(3000))
			case 1:
				return 5000 + uint64(r.intn(40000))
			}
			return 1 << 40
		}
		made := 0
		for pass := 1; pass <= 3; pass++ {
			vq, cq := HandQuery(views.eng, plan), planningQuery(copies.eng)
			for oi := range sp.Ops {
				vts, cts := PlanStep(vq, oi), planOp(cq, &sp.Ops[oi])
				if len(vts) != len(cts) {
					t.Fatalf("seed %d pass %d op %d: %d tasks, gathered %d", seed, pass, oi, len(vts), len(cts))
				}
				if ps := vq.vars[sp.Ops[oi].Out]; sp.Ops[oi].Kind == OpProject && ps.cand != nil {
					for _, f := range ps.Parts {
						made += b2i(f.sparse)
					}
				}
				for ti := range vts {
					views.ctx.Core = numa.CoreID((oi + 3*ti) % views.m.Topology().TotalCores())
					copies.ctx.Core = views.ctx.Core
					for n := 0; ; n++ {
						b := budget()
						uv, dv := vts[ti].Step(&views.ctx, b)
						uc, dc := cts[ti].Step(&copies.ctx, b)
						if uv != uc || dv != dc {
							t.Fatalf("seed %d pass %d op %d task %d step %d (budget %d): used %d done %v, gathered %d %v", seed, pass, oi, ti, n, b, uv, dv, uc, dc)
						}
						if !reflect.DeepEqual(views.m.Snapshot(), copies.m.Snapshot()) {
							t.Fatalf("seed %d pass %d op %d task %d step %d: numa counters differ from the gathered run", seed, pass, oi, ti, n)
						}
						if dv {
							break
						}
					}
				}
			}
			vs, vi, vf := Results(vq)
			cs, _, _ := Results(cq)
			if !reflect.DeepEqual(vs, cs) || vs["units"] == 0 || vs["nrows"] != 0 {
				t.Fatalf("seed %d pass %d: scalars %v, gathered %v", seed, pass, vs, cs)
			}
			for name := range vi {
				label := fmt.Sprintf("seed %d pass %d: %s", seed, pass, name)
				eqI64(t, label, vi[name], cq.Var(name).FlattenI64())
				eqF64(t, label, vf[name], cq.Var(name).FlattenF64())
			}
			if len(vi) != 6 {
				t.Fatalf("seed %d pass %d: %d variables bound at the end, want the 6 merged results", seed, pass, len(vi))
			}
			ReleaseHand(views.eng, vq)
			releaseByHand(copies.eng, cq)
		}
		if _, replays, _ := views.eng.rec.counts(); replays == 0 || made == 0 {
			t.Fatalf("seed %d: %d replays, %d sparse views", seed, replays, made)
		}
		for _, e := range []*Engine{views.eng, copies.eng} {
			if err := poolAtRest(e); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}
