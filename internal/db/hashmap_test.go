package db

import (
	"math"
	"reflect"
	"testing"

	"elasticore/internal/numa"
)

// hashmap_test.go is the differential harness of the key tables: both
// value kinds, in both forms, against Go's map. The positional form is
// the fast path; the hash form (a table nobody sized) and the map are its
// oracles.

// tableBytes is the heap a table's arrays hold, both forms together.
func tableBytes[V int64 | float64](m *keyTable[V]) int {
	return len(m.ctrl) + 8*(len(m.keys)+len(m.vals)+len(m.bits)+len(m.byPos))
}

// sameValue compares bit patterns, so a float sum accumulated in another
// order (or a lost -0) does not pass.
func sameValue[V int64 | float64](a, b V) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) && a == b
}

// accumulate is Add on the oracle: a key's first delta is stored as it is
// (0 + -0 would lose the sign), later ones are added left to right.
func accumulate(want map[int64]float64, k int64, d float64) {
	if sum, ok := want[k]; ok {
		d = sum + d
	}
	want[k] = d
}

// keyEdges are probes no case stores: they must miss in either form.
var keyEdges = []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}

// checkTable compares every observable of m with want: Len, Get of each
// stored key, misses next to each stored key and at the int64 edges, and
// Range (each entry once; ascending keys in positional form).
func checkTable[V int64 | float64](t *testing.T, label string, m *keyTable[V], want map[int64]V) {
	t.Helper()
	if m.Len() != len(want) {
		t.Fatalf("%s: table holds %d keys, want %d", label, m.Len(), len(want))
	}
	probe := func(k int64) {
		t.Helper()
		got, ok := m.Get(k)
		if wv, wok := want[k]; ok != wok || !sameValue(got, wv) {
			t.Fatalf("%s: Get(%d) = (%v, %v), want (%v, %v)", label, k, got, ok, wv, wok)
		}
	}
	for k := range want {
		probe(k)
		probe(k - 1)
		probe(k + 1)
	}
	for _, k := range keyEdges {
		probe(k)
	}
	if m.span > 0 {
		probe(m.base - 1)
		probe(m.base + int64(m.span-1))
		probe(m.base + int64(m.span))
	}
	seen, last := 0, int64(math.MinInt64)
	m.Range(func(k int64, v V) {
		if wv, ok := want[k]; !ok || !sameValue(v, wv) {
			t.Fatalf("%s: Range yields (%d, %v), want (%v, %v)", label, k, v, wv, ok)
		}
		if m.span > 0 && seen > 0 && k <= last {
			t.Fatalf("%s: positional Range yields %d after %d", label, k, last)
		}
		seen, last = seen+1, k
	})
	if seen != len(want) {
		t.Fatalf("%s: Range yields %d entries, want %d", label, seen, len(want))
	}
}

// checkIdleFormClean asserts the invariant Reset's cost rests on: the
// arrays of the form not in use hold no entry.
func checkIdleFormClean[V int64 | float64](t *testing.T, label string, m *keyTable[V]) {
	t.Helper()
	if m.span > 0 {
		for i, c := range m.ctrl {
			if c != 0 {
				t.Fatalf("%s: positional table has hash slot %d occupied", label, i)
			}
		}
		return
	}
	for w, word := range m.bits {
		if word != 0 {
			t.Fatalf("%s: hash table has presence word %d = %#x", label, w, word)
		}
	}
}

// keyShapes are the key distributions of the differential test: lo, hi
// are the bounds a caller would size the table from.
var keyShapes = []struct {
	name   string
	lo, hi int64
}{
	{"dense", 0, 999},
	{"negative", -700, -200},
	{"straddles-zero", -40, 40},
	{"one-key", 17, 17},
	{"top-of-int64", math.MaxInt64 - 300, math.MaxInt64},
	{"bottom-of-int64", math.MinInt64, math.MinInt64 + 300},
	{"sparse", -1 << 45, 1 << 45},
	{"every-int64", math.MinInt64, math.MaxInt64},
}

// TestKeyTablesMatchGoMap drives Put and Add streams with duplicates into
// an unsized (hash) table and into one sized from the keys' bounds, and
// compares both with a Go map: last Put wins, Add accumulates in insertion
// order (bit-identical float sums), misses miss.
func TestKeyTablesMatchGoMap(t *testing.T) {
	for _, seed := range diffSeeds {
		r := newDiffRNG(seed)
		for _, shape := range keyShapes {
			width := uint64(shape.hi) - uint64(shape.lo)
			keys := make([]int64, 400)
			for i := range keys {
				off := r.Next()
				if width != math.MaxUint64 {
					off %= width + 1
				}
				keys[i] = int64(uint64(shape.lo) + off)
			}
			keys[0], keys[1] = shape.lo, shape.hi // the bounds themselves are keys
			// 400 keys reserve 1 024 hash slots, 17 KB: under the floor, so
			// the rule is "32 KB or less".
			wantPos, wantBitmap := width < 4032, width < 262144
			for _, sized := range []bool{false, true} {
				label := shape.name + "/unsized"
				var ii, member i64Map
				var fi i64fMap
				if sized {
					label = shape.name + "/sized"
					lo, hi := NewI64("k", keys).widen(noKeys())
					if lo != shape.lo || hi != shape.hi {
						t.Fatalf("%s: widen gives [%d, %d]", label, lo, hi)
					}
					for _, got := range []bool{
						ii.tryPositional(lo, hi, len(keys), false),
						fi.tryPositional(lo, hi, len(keys), false),
					} {
						if got != wantPos {
							t.Fatalf("%s: tryPositional = %v, want %v", label, got, wantPos)
						}
					}
					if got := member.tryPositional(lo, hi, len(keys), true); got != wantBitmap {
						t.Fatalf("%s: membership tryPositional = %v", label, got)
					}
				}
				wantII, wantM, wantFI := map[int64]int64{}, map[int64]int64{}, map[int64]float64{}
				for i, k := range keys {
					v, d := int64(r.intn(9))-4, r.f64()-0.5
					if i%7 == 0 {
						d = math.Copysign(0, -1) // a first delta of -0 must stay -0
					}
					ii.Put(k, v)
					member.Put(k, 1)
					fi.Add(k, d)
					wantII[k], wantM[k] = v, 1
					accumulate(wantFI, k, d)
				}
				if sized && (ii.span > 0) != wantPos {
					t.Fatalf("%s: in-range inserts changed the form", label)
				}
				checkTable(t, label+"/put", &ii, wantII)
				checkTable(t, label+"/member", &member, wantM)
				checkTable(t, label+"/add", &fi, wantFI)
				checkIdleFormClean(t, label+"/put", &ii)
				checkIdleFormClean(t, label+"/member", &member)
				checkIdleFormClean(t, label+"/add", &fi)

				// addAll is Add over vectors, nil values counting 1.
				var bulk, count i64fMap
				if sized {
					bulk.tryPositional(shape.lo, shape.hi, len(keys), false)
					count.tryPositional(shape.lo, shape.hi, len(keys), false)
				}
				deltas, wantBulk, wantCount := genF64(r, len(keys)), map[int64]float64{}, map[int64]float64{}
				for i, k := range keys {
					accumulate(wantBulk, k, deltas[i])
					accumulate(wantCount, k, 1)
				}
				bulk.addAll(keys[:150], deltas[:150])
				bulk.addAll(keys[150:], deltas[150:])
				count.addAll(keys, nil)
				checkTable(t, label+"/addAll", &bulk, wantBulk)
				checkTable(t, label+"/count", &count, wantCount)
			}
		}
	}
}

// TestKeyTableFormRule pins the byte rule and its edges: the floor, the
// hash table a build of n keys would have reserved, spans that overflow
// int64, and that a refused table is left alone.
func TestKeyTableFormRule(t *testing.T) {
	for _, tc := range []struct {
		name       string
		lo, hi     int64
		n          int
		member     bool
		positional bool
	}{
		{"customers of 60 000 orders", 0, 5999, 60000, true, true},
		{"7 parts of 8 000 (Q17)", 11, 7990, 7, true, true},
		{"bitmap at the floor", 0, 262143, 1, true, true},
		{"bitmap one key past the floor", 0, 262144, 1, true, false},
		{"sums at the floor", 0, 4031, 1, false, true},
		{"sums one key past the floor", 0, 4032, 1, false, false},
		{"sums no larger than the hash reserve", 0, 59999, 60000, false, true},
		{"sums larger than the hash reserve", 0, 59999, 2200, false, false},
		{"negative base", -5, 5, 3, false, true},
		{"ends at MaxInt64", math.MaxInt64 - 10, math.MaxInt64, 3, false, true},
		{"starts at MinInt64", math.MinInt64, math.MinInt64 + 10, 3, true, true},
		{"every int64", math.MinInt64, math.MaxInt64, 2, true, false},
		{"span of 1<<63", -1 << 62, 1 << 62, 2, true, false},
		{"no keys", math.MaxInt64, math.MinInt64, 0, true, false},
	} {
		var m i64Map
		if got := m.tryPositional(tc.lo, tc.hi, tc.n, tc.member); got != tc.positional {
			t.Errorf("%s: tryPositional = %v, want %v", tc.name, got, tc.positional)
			continue
		}
		if !tc.positional {
			if tableBytes(&m) != 0 || m.span != 0 {
				t.Errorf("%s: a refused table allocated %d bytes (span %d)", tc.name, tableBytes(&m), m.span)
			}
			continue
		}
		// Both bounds are keys: they must fit without leaving the form.
		m.Put(tc.lo, 1)
		m.Put(tc.hi, 1)
		if m.span == 0 {
			t.Errorf("%s: inserting the bounds left the positional form", tc.name)
		}
		checkTable(t, tc.name, &m, map[int64]int64{tc.lo: 1, tc.hi: 1})
		limit := max(positionalFloor, slotsFor(tc.n)*hashSlotBytes)
		if got := tableBytes(&m); got > limit {
			t.Errorf("%s: positional table takes %d bytes, rule allows %d", tc.name, got, limit)
		}
	}

	// A table that already holds keys keeps its form.
	var live i64Map
	live.Put(3, 4)
	if live.tryPositional(0, 10, 1, false) {
		t.Error("a non-empty table changed form")
	}
	checkTable(t, "live", &live, map[int64]int64{3: 4})
}

// TestKeyTableConvertsOnOutlier: a key outside the reserved range, or a
// payload a membership bitmap cannot hold, arriving after the positional
// form was chosen converts the table to the hash form with every entry
// kept — through Put, Add and mid-vector in addAll.
func TestKeyTableConvertsOnOutlier(t *testing.T) {
	for _, outlier := range []int64{9, 51, -3, math.MinInt64, math.MaxInt64} {
		var ii i64Map
		var fi, bulk i64fMap
		ii.tryPositional(10, 50, 41, false)
		fi.tryPositional(10, 50, 41, false)
		bulk.tryPositional(10, 50, 41, false)
		wantII, wantFI := map[int64]int64{}, map[int64]float64{}
		var keys []int64
		var deltas []float64
		for k := int64(10); k <= 50; k += 3 {
			ii.Put(k, -k)
			wantII[k] = -k
			keys, deltas = append(keys, k, k), append(deltas, 0.1*float64(k), 0.7)
		}
		// The outlier sits mid-vector, and in-range keys follow it.
		keys, deltas = append(keys[:9], append([]int64{outlier, 10, outlier}, keys[9:]...)...),
			append(deltas[:9], append([]float64{2.5, 0.3, 1.5}, deltas[9:]...)...)
		for i, k := range keys {
			fi.Add(k, deltas[i])
			accumulate(wantFI, k, deltas[i])
		}
		bulk.addAll(keys, deltas)
		ii.Put(outlier, 99)
		wantII[outlier] = 99
		for _, m := range []*i64fMap{&fi, &bulk} {
			if m.span != 0 {
				t.Fatalf("outlier %d: sum table still positional", outlier)
			}
			checkTable(t, "sums", m, wantFI)
			checkIdleFormClean(t, "sums", m)
		}
		if ii.span != 0 {
			t.Fatalf("outlier %d: join table still positional", outlier)
		}
		checkTable(t, "join", &ii, wantII)
		checkIdleFormClean(t, "join", &ii)
	}

	// A payload other than 1 put into a membership set; then an Add.
	var set i64Map
	set.tryPositional(0, 99, 100, true)
	want := map[int64]int64{}
	for k := int64(0); k < 100; k += 2 {
		set.Put(k, 1)
		want[k] = 1
	}
	if set.span == 0 || len(set.byPos) != 0 {
		t.Fatal("a membership set is not a bare bitmap")
	}
	set.Put(4, 1) // a duplicate that fits
	set.Put(6, 7)
	want[6] = 7
	if set.span != 0 {
		t.Fatal("a payload of 7 left the table a bitmap")
	}
	checkTable(t, "member→hash", &set, want)
	checkIdleFormClean(t, "member→hash", &set)

	var counted i64Map
	counted.tryPositional(0, 9, 10, true)
	counted.Put(2, 1)
	counted.Add(2, 5)
	counted.Add(3, 5)
	checkTable(t, "member+add", &counted, map[int64]int64{2: 6, 3: 5})
}

// TestKeyTablePooledReuse sends one table through the engine pool as a
// positional, a hash and again a positional table (another base, another
// kind of payload): entries and bits of an earlier life are never visible.
func TestKeyTablePooledReuse(t *testing.T) {
	var p bufPool
	m := p.getMapII()
	if !m.tryPositional(100, 199, 100, false) {
		t.Fatal("first life is not positional")
	}
	for k := int64(100); k < 200; k++ {
		m.Put(k, k*3)
	}
	p.putMapII(m)

	hashed := p.getMapII()
	if hashed != m {
		t.Fatal("the pool did not recycle the table")
	}
	checkTable(t, "recycled, empty", hashed, map[int64]int64{})
	want := map[int64]int64{}
	for k := int64(150); k < 1<<40; k = k*5 + 1 {
		hashed.Put(k, -k)
		want[k] = -k
	}
	if hashed.span != 0 {
		t.Fatal("an unsized table is positional")
	}
	checkTable(t, "second life (hash)", hashed, want)
	checkIdleFormClean(t, "second life (hash)", hashed)
	p.putMapII(hashed)

	again := p.getMapII()
	bitsBefore := &again.bits[0]
	if !again.tryPositional(130, 180, 8, true) {
		t.Fatal("third life is not positional")
	}
	if &again.bits[0] != bitsBefore {
		t.Fatal("a smaller span reallocated the bitmap")
	}
	again.Put(131, 1)
	again.Put(180, 1)
	checkTable(t, "third life (bitmap)", again, map[int64]int64{131: 1, 180: 1})
	checkIdleFormClean(t, "third life (bitmap)", again)
	p.putMapII(again)

	last := p.getMapII()
	last.tryPositional(100, 199, 100, false) // byPos of the first life is reused
	last.Put(150, 1)
	checkTable(t, "fourth life (stale payloads)", last, map[int64]int64{150: 1})

	f := p.getMapIF()
	f.tryPositional(0, 63, 64, false)
	f.Add(5, 2.5)
	f.Add(6, 2.5)
	p.putMapIF(f)
	f = p.getMapIF()
	f.tryPositional(0, 63, 64, false)
	f.Add(5, 1)
	f.addAll([]int64{6}, []float64{1})
	checkTable(t, "recycled sums", f, map[int64]float64{5: 1, 6: 1})
}

// TestResetClearsTheFormInUse: Reset's cost is that of the form in use —
// a bitmap of the current span, or the hash control bytes — not of every
// array a pooled table has accumulated. The test plants a marker in the
// idle form's array (which the invariant keeps empty, so only a clear
// could remove it) and checks that Reset walked past it.
func TestResetClearsTheFormInUse(t *testing.T) {
	var m i64Map
	m.reserve(1 << 12)
	m.Put(1, 1)
	m.Reset()
	if !m.tryPositional(0, 1<<14-1, 1<<14, true) { // 256 words
		t.Fatal("not positional")
	}
	m.Put(9, 1)
	m.Reset()

	m.tryPositional(0, 127, 128, true) // 2 words of the 256
	m.Put(100, 1)
	m.ctrl[7], m.bits[2] = 1, 1<<63
	m.Reset()
	if m.ctrl[7] != 1 || m.bits[2] != 1<<63 {
		t.Error("resetting a 2-word bitmap cleared the hash arrays or the rest of the bitmap")
	}
	if m.bits[1] != 0 {
		t.Error("Reset left a bit of the span in use")
	}
	m.ctrl[7], m.bits[2] = 0, 0

	m.Put(5, 5) // hash form
	m.bits[200] = 1
	m.Reset()
	if m.bits[200] != 1 {
		t.Error("resetting a hash table cleared the bitmap")
	}
	if _, ok := m.Get(5); ok || m.Len() != 0 {
		t.Error("Reset left a hash entry")
	}
}

// FuzzKeyTables interprets its input as a stream of table operations —
// size, put, add, get, reset, a trip through the pool — on one table of
// each kind, checked against Go maps after every operation that reads
// and in full at the end. Keys are offsets from a few anchors, the int64
// extremes among them, so spans overflow and outliers arrive.
func FuzzKeyTables(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 50, 41, 1, 0, 3, 2, 1, 0, 9, 2, 2, 0, 60, 1, 3, 0, 3, 0})        // size [0,50], put, add, outlier
	f.Add([]byte{0, 3, 0, 4, 0, 2, 1, 3, 0, 5, 1, 4, 0, 5, 3, 3, 0, 0})                       // MinInt64 … MaxInt64
	f.Add([]byte{8, 1, 0, 1, 90, 9, 1, 1, 7, 1, 1, 1, 7, 3, 5, 0, 0, 0, 0, 1, 200, 1, 10, 1}) // bitmap, payload 3, pool, resize
	anchors := []int64{0, 1000, -1000, math.MinInt64, math.MaxInt64, 1 << 40, -77}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p bufPool
		ii, fi := p.getMapII(), p.getMapIF()
		wantII, wantFI := map[int64]int64{}, map[int64]float64{}
		key := func(sel, off byte) int64 { return anchors[int(sel)%len(anchors)] + int64(int8(off)) }
		for len(data) >= 3 {
			op, a, b := data[0], data[1], data[2]
			data = data[3:]
			k := key(a, b)
			switch op % 8 {
			case 0: // size both tables for [k, k2]
				if len(data) < 3 {
					return
				}
				k2, n, member := key(data[0], data[1]), int(data[2]), op&8 != 0
				data = data[3:]
				posII := ii.tryPositional(k, k2, n, member)
				posFI := fi.tryPositional(k, k2, n, false)
				if (posII && len(wantII) > 0) || (posFI && len(wantFI) > 0) {
					t.Fatal("a table holding keys changed form")
				}
				if posII != (ii.span > 0) && len(wantII) == 0 {
					t.Fatalf("tryPositional = %v, span %d", posII, ii.span)
				}
			case 1, 2:
				v := int64(op>>3) - 3
				if op%8 == 2 {
					v = 1
				}
				ii.Put(k, v)
				wantII[k] = v
			case 3, 4:
				d := float64(int8(op)) / 8
				fi.Add(k, d)
				accumulate(wantFI, k, d)
			case 5:
				p.putMapII(ii)
				p.putMapIF(fi)
				ii, fi = p.getMapII(), p.getMapIF()
				clear(wantII)
				clear(wantFI)
			case 6:
				ii.Reset()
				clear(wantII)
			default:
				gv, gok := ii.Get(k)
				if wv, wok := wantII[k]; gok != wok || gv != wv {
					t.Fatalf("i64Map.Get(%d) = (%d, %v), want (%d, %v)", k, gv, gok, wv, wok)
				}
				gf, gok := fi.Get(k)
				if wf, wok := wantFI[k]; gok != wok || !sameValue(gf, wf) {
					t.Fatalf("i64fMap.Get(%d) = (%g, %v), want (%g, %v)", k, gf, gok, wf, wok)
				}
			}
		}
		checkTable(t, "i64Map", ii, wantII)
		checkTable(t, "i64fMap", fi, wantFI)
		checkIdleFormClean(t, "i64Map", ii)
		checkIdleFormClean(t, "i64fMap", fi)
	})
}

// TestBuildSideHoldsWhatItKeys runs the anti-join of TPC-H Q13/Q22 at
// their SF 0.04 cardinalities — 60 000 orders naming 4 000 of 6 000
// customers — through the engine and pins what the build side holds: a
// bitmap over the customer keys it saw (the hash form reserved from the
// build side's rows was 131 072 slots, 2.2 MB, for 4 000 keys). The same
// build with one far-away key cannot be positional and takes the old
// reserve(rows) path; both give the reference answer.
func TestBuildSideHoldsWhatItKeys(t *testing.T) {
	const orders, customers = 60000, 6000
	for _, tc := range []struct {
		name      string
		outlier   int64
		wantBytes int
	}{
		{"positional", -1, (customers + 63) / 64 * 8},
		{"hash", 1 << 40, slotsFor(orders) * hashSlotBytes},
	} {
		r := newDBRig(t, 64, PlacementOS)
		custkey, ckeys := make([]int64, orders), identity(0, customers)
		rng := newDiffRNG(13)
		has := map[int64]bool{}
		for i := range custkey {
			for custkey[i]%3 == 0 { // every third customer never ordered
				custkey[i] = int64(rng.intn(customers))
			}
		}
		custkey[0], custkey[1] = 1, customers-1 // the bounds of the key range
		if tc.outlier >= 0 {
			custkey[orders/2] = tc.outlier
		}
		for _, k := range custkey {
			has[k] = true
		}
		wantIdle := 0
		for _, k := range ckeys {
			wantIdle += b2i(!has[k])
		}
		for name, cols := range map[string]map[string]*BAT{
			"orders":   {"o_custkey": NewI64("o_custkey", custkey)},
			"customer": {"c_custkey": NewI64("c_custkey", ckeys)},
		} {
			if _, err := r.store.CreateTable(name, cols); err != nil {
				t.Fatal(err)
			}
		}
		ops := []OpSpec{
			ScanAll("orders", "o_custkey", "co"),
			Project("co", "orders", "o_custkey", "ock"),
			Build("ock", "", "hasorders"),
			ScanAll("customer", "c_custkey", "cc"),
			ProbeAnti("cc", "customer", "c_custkey", "hasorders", "cc2"),
			Count("cc2", "idle"),
		}
		q := r.eng.Submit(lower("Q13-join", ops...))
		r.run(t, q)
		if got := int(q.Scalar("idle")); got != wantIdle {
			t.Errorf("%s: %d customers without orders, want %d", tc.name, got, wantIdle)
		}
		// The probe is the set's last reader: the build alone keeps it.
		build := r.eng.Submit(lower("Q13-build", through(ops, "hasorders")...))
		r.run(t, build)
		set := build.Set("hasorders")
		if (set.span > 0) != (tc.outlier < 0) {
			t.Errorf("%s: build side has span %d", tc.name, set.span)
		}
		if set.Len() != len(has) {
			t.Errorf("%s: build side holds %d keys, want %d", tc.name, set.Len(), len(has))
		}
		if got := tableBytes(set); got != tc.wantBytes {
			t.Errorf("%s: build side takes %d bytes, want %d", tc.name, got, tc.wantBytes)
		}
	}
}

// TestPlansCostTheSameInEitherForm is the engine-level half of the
// differential: one plan — fetch, semi and anti joins, a grouped sum, its
// merge and a top-n — runs on two identical rigs whose join/group key
// column differs only by an order-preserving scatter (k → k<<34), which
// pushes every table of the second run out of the byte rule and into the
// hash form. Results (keys modulo the scatter), latency and every counter
// of the simulated machine must be identical: the simulated cost of a
// join or group reads row counts and column regions, never the table.
func TestPlansCostTheSameInEitherForm(t *testing.T) {
	const scatter = 34
	keyVars := map[string]bool{"keys": true, "gkeys": true, "gk": true}
	ops := []OpSpec{
		Scan("lineitem", "l_extendedprice", "cheap", PredFLess(300)),
		Project("cheap", "lineitem", "l_orderkey", "keys"),
		Project("cheap", "lineitem", "l_shipdate", "dates"),
		Build("keys", "dates", "when"),
		Build("keys", "", "seen"),
		ScanAll("lineitem", "l_orderkey", "all"),
		ProbeSemi("all", "lineitem", "l_orderkey", "seen", "hit"),
		ProbeAnti("all", "lineitem", "l_orderkey", "seen", "miss"),
		ProbeFetch("all", "lineitem", "l_orderkey", "when", "got", "dated"),
		Project("hit", "lineitem", "l_orderkey", "gkeys"),
		Project("hit", "lineitem", "l_extendedprice", "gvals"),
		GroupSum("gkeys", "gvals", "parts"),
		GroupMerge("parts", "gk", "gs"),
		TopN("gk", "gs", 7),
		Count("hit", "hits"),
		Count("miss", "misses"),
	}
	run := func(far bool, ops []OpSpec) (*Query, *numa.Machine) {
		r := newDBRig(t, 40000, PlacementOS)
		if far {
			for i := range r.store.Table("lineitem").Col("l_orderkey").I {
				r.store.Table("lineitem").Col("l_orderkey").I[i] <<= scatter
			}
		}
		q := r.eng.Submit(lower("forms", ops...))
		r.run(t, q)
		return q, r.machine
	}
	// The tables die at their last probe and merge: the plan up to the
	// builds keeps the two sets, the plan up to the grouped sum its
	// partials.
	for _, far := range []bool{false, true} {
		sets, _ := run(far, through(ops, "seen"))
		groups, _ := run(far, through(ops, "parts"))
		positional := 0
		for _, m := range groups.partialsOf("parts") {
			if m != nil {
				positional += b2i(m.span > 0)
			}
		}
		if got := []bool{sets.Set("when").span > 0, sets.Set("seen").span > 0, positional > 0}; got[0] == far || got[1] == far || got[2] == far {
			t.Fatalf("far=%v: fetch table, membership set, partials positional = %v", far, got)
		}
	}
	// Every prefix of the plan runs in both forms, so each variable is a
	// result — still bound when the query ends — in one of them.
	for k := 1; k <= len(ops); k++ {
		near, nearM := run(false, ops[:k])
		far, farM := run(true, ops[:k])
		if k == len(ops) && (near.Scalar("hits") == 0 || near.Scalar("misses") == 0 || near.Var("gk").Rows() != 7) {
			t.Fatal("the plan does not exercise hits, misses and groups")
		}
		if !reflect.DeepEqual(near.scalars, far.scalars) {
			t.Errorf("%d steps: scalars differ: positional %v, hash %v", k, near.scalars, far.scalars)
		}
		if len(near.vars) != len(far.vars) {
			t.Errorf("%d steps: %d variables positional, %d hash", k, len(near.vars), len(far.vars))
		}
		for name, ps := range near.vars {
			want := ps.FlattenI64()
			if keyVars[name] {
				for i := range want {
					want[i] <<= scatter
				}
			}
			got := far.vars[name]
			if got == nil || !reflect.DeepEqual(got.FlattenI64(), want) || !reflect.DeepEqual(got.FlattenF64(), ps.FlattenF64()) {
				t.Errorf("%d steps: variable %s differs between the forms", k, name)
			}
		}
		if near.ElapsedCycles() != far.ElapsedCycles() {
			t.Errorf("%d steps: latency %d cycles positional, %d hash", k, near.ElapsedCycles(), far.ElapsedCycles())
		}
		if !reflect.DeepEqual(nearM.Snapshot(), farM.Snapshot()) {
			t.Errorf("%d steps: numa counters differ between the forms", k)
		}
	}
}
