package db

import (
	"testing"

	"elasticore/internal/hashmix"
)

// bench_test.go holds the per-layer numbers of the key tables inside the
// root module: ns per probed row and per grouped row, each table form
// beside the other on the key orders TPC-H produces. CI executes them
// once; timing claims are made with benchmark/run.sh.

const benchRows = 1 << 18 // about one SF 0.04 lineitem

// benchKeys returns benchRows foreign keys into a table of span keys:
// sequential is l_orderkey-like (sorted, four rows per key), random is
// l_partkey-like.
func benchKeys(span int, sequential bool) []int64 {
	keys := make([]int64, benchRows)
	for i := range keys {
		if sequential {
			keys[i] = int64(i / 4 % span)
		} else {
			keys[i] = int64(hashmix.Mix64(uint64(i)) % uint64(span))
		}
	}
	return keys
}

func reportPerRow(b *testing.B, rows int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// BenchmarkProbe times HashProbe over a full-column dense candidate: a
// semijoin against a selective membership set (every eighth key of the
// span) and a fetch join against a build side holding every key.
func BenchmarkProbe(b *testing.B) {
	for _, order := range []struct {
		name       string
		span       int
		sequential bool
	}{{"orderkey-sequential", 60000, true}, {"partkey-random", 8000, false}} {
		col := NewI64("fk", benchKeys(order.span, order.sequential))
		cand := newDense("cand", 0, benchRows)
		for _, mode := range []struct {
			name  string
			fetch bool
		}{{"semi", false}, {"fetch", true}} {
			for _, form := range tableForms {
				b.Run(order.name+"/"+mode.name+"/"+form.name, func(b *testing.B) {
					step, set := int64(8), &i64Map{}
					if mode.fetch {
						step = 1
					}
					if form.positional && !set.tryPositional(0, int64(order.span-1), order.span/int(step), !mode.fetch) {
						b.Fatal("build side is not positional")
					}
					for k := int64(0); k < int64(order.span); k += step {
						if mode.fetch {
							set.Put(k, k+1)
						} else {
							set.Put(k, 1)
						}
					}
					want := 0
					for _, k := range col.I {
						want += b2i(k%step == 0)
					}
					hp := NewHashProbe(col, cand, set, false, mode.fetch, make([]int64, 0, benchRows), make([]int64, 0, benchRows))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						hp.ids, hp.payloads = hp.ids[:0], hp.payloads[:0]
						hp.runRange(0, benchRows)
					}
					reportPerRow(b, benchRows)
					if len(hp.ids) != want {
						b.Fatalf("%d rows survived, want %d", len(hp.ids), want)
					}
				})
			}
		}
	}
}

// BenchmarkGroupPartial times GroupAgg summing a value per key: one
// partition's l_suppkey-like random keys and l_orderkey-like sorted keys.
func BenchmarkGroupPartial(b *testing.B) {
	vals := NewF64("v", make([]float64, benchRows))
	for i := range vals.F {
		vals.F[i] = float64(i%97) * 0.25
	}
	for _, order := range []struct {
		name       string
		span       int
		sequential bool
	}{{"suppkey-random", 400, false}, {"orderkey-sequential", 60000, true}} {
		keys := NewI64("k", benchKeys(order.span, order.sequential))
		for _, form := range tableForms {
			b.Run(order.name+"/"+form.name, func(b *testing.B) {
				agg := &i64fMap{}
				for i := 0; i < b.N; i++ {
					agg.Reset()
					if form.positional && !agg.tryPositional(0, int64(order.span-1), benchRows, false) {
						b.Fatal("partial is not positional")
					}
					NewGroupAgg(keys, vals, agg).runRange(0, benchRows)
				}
				reportPerRow(b, benchRows)
				if agg.Len() != order.span {
					b.Fatalf("%d groups, want %d", agg.Len(), order.span)
				}
			})
		}
	}
}
