package tpch

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"elasticore/internal/db"
	"elasticore/internal/numa"
)

func loadSmall(t *testing.T, sf float64) (*db.Store, *Dataset) {
	t.Helper()
	store := db.NewStore(numa.NewMachine(numa.Opteron8387()))
	ds, err := Load(store, Config{SF: sf})
	if err != nil {
		t.Fatal(err)
	}
	return store, ds
}

func TestLoadCreatesAllTables(t *testing.T) {
	store, ds := loadSmall(t, 0.002)
	for _, name := range []string{"lineitem", "orders", "customer", "part", "partsupp", "supplier", "nation", "region"} {
		if !store.HasTable(name) {
			t.Errorf("table %s missing", name)
		}
	}
	if ds.Sizes.Lineitem == 0 || ds.Sizes.Orders == 0 {
		t.Error("empty fact tables")
	}
}

func TestRowCountsScale(t *testing.T) {
	_, small := loadSmall(t, 0.002)
	_, big := loadSmall(t, 0.004)
	if big.Sizes.Orders <= small.Sizes.Orders {
		t.Errorf("orders did not scale: %d vs %d", big.Sizes.Orders, small.Sizes.Orders)
	}
	// Lineitem averages ~4 lines per order.
	ratio := float64(small.Sizes.Lineitem) / float64(small.Sizes.Orders)
	if ratio < 2.5 || ratio > 5.5 {
		t.Errorf("lines per order = %.2f, want ~4", ratio)
	}
}

func TestGenerationDeterministic(t *testing.T) {
	s1, _ := loadSmall(t, 0.002)
	s2, _ := loadSmall(t, 0.002)
	a := s1.Table("lineitem").Col("l_extendedprice").F
	b := s2.Table("lineitem").Col("l_extendedprice").F
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("value %d differs: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestSeedChangesData(t *testing.T) {
	store1 := db.NewStore(numa.NewMachine(numa.Opteron8387()))
	store2 := db.NewStore(numa.NewMachine(numa.Opteron8387()))
	if _, err := Load(store1, Config{SF: 0.002, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(store2, Config{SF: 0.002, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	a := store1.Table("orders").Col("o_totalprice").F
	b := store2.Table("orders").Col("o_totalprice").F
	same := true
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestValueDomains(t *testing.T) {
	store, _ := loadSmall(t, 0.002)
	li := store.Table("lineitem")
	for i, q := range li.Col("l_quantity").F {
		if q < 1 || q > 50 {
			t.Fatalf("l_quantity[%d] = %g out of [1,50]", i, q)
		}
	}
	for i, d := range li.Col("l_discount").F {
		if d < 0 || d > 0.10 {
			t.Fatalf("l_discount[%d] = %g out of [0,0.10]", i, d)
		}
	}
	for i, rf := range li.Col("l_returnflag").I {
		if rf < 0 || rf >= NumReturnFlags {
			t.Fatalf("l_returnflag[%d] = %d out of domain", i, rf)
		}
	}
	for i, sd := range li.Col("l_shipdate").I {
		if sd < 19920101 || sd > 19991231 {
			t.Fatalf("l_shipdate[%d] = %d out of window", i, sd)
		}
	}
}

func TestForeignKeysValid(t *testing.T) {
	store, ds := loadSmall(t, 0.002)
	li := store.Table("lineitem")
	for i, ok := range li.Col("l_orderkey").I {
		if ok < 0 || int(ok) >= ds.Sizes.Orders {
			t.Fatalf("l_orderkey[%d] = %d out of range", i, ok)
		}
	}
	for i, pk := range li.Col("l_partkey").I {
		if pk < 0 || int(pk) >= ds.Sizes.Part {
			t.Fatalf("l_partkey[%d] = %d out of range", i, pk)
		}
	}
	for i, ck := range store.Table("orders").Col("o_custkey").I {
		if ck < 0 || int(ck) >= ds.Sizes.Customer {
			t.Fatalf("o_custkey[%d] = %d out of range", i, ck)
		}
	}
}

func TestShipDateFollowsOrderDate(t *testing.T) {
	store, _ := loadSmall(t, 0.002)
	li := store.Table("lineitem")
	odates := store.Table("orders").Col("o_orderdate").I
	for i, ok := range li.Col("l_orderkey").I {
		if li.Col("l_shipdate").I[i] <= odates[ok] {
			t.Fatalf("lineitem %d ships (%d) before its order (%d)", i, li.Col("l_shipdate").I[i], odates[ok])
		}
	}
}

func TestLateFlagConsistent(t *testing.T) {
	store, _ := loadSmall(t, 0.002)
	li := store.Table("lineitem")
	commit, receipt, late := li.Col("l_commitdate").I, li.Col("l_receiptdate").I, li.Col("l_late").I
	for i := range late {
		want := int64(0)
		if commit[i] < receipt[i] {
			want = 1
		}
		if late[i] != want {
			t.Fatalf("l_late[%d] = %d, want %d", i, late[i], want)
		}
	}
}

func TestDayNumberMonotonic(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a)%totalOrderDays, int(b)%totalOrderDays
		if x > y {
			x, y = y, x
		}
		return dayNumber(x) <= dayNumber(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGUniformish(t *testing.T) {
	r := newRNG(42)
	buckets := make([]int, 10)
	for i := 0; i < 10000; i++ {
		buckets[r.intn(10)]++
	}
	for b, c := range buckets {
		if c < 700 || c > 1300 {
			t.Errorf("bucket %d = %d, want ~1000", b, c)
		}
	}
}

func TestLoadRejectsBadSF(t *testing.T) {
	store := db.NewStore(numa.NewMachine(numa.Opteron8387()))
	for _, sf := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		if _, err := Load(store, Config{SF: sf}); err == nil {
			t.Errorf("SF=%g accepted", sf)
		}
	}
}

// refGenerate is the sequential generator the parallel fill replaced:
// every table drawn row by row from one stream, lineitem's columns grown
// by append. It is the oracle TestGenerationMatchesSequential holds the
// shipped generator to.
func refGenerate(cfg Config) (Sizes, []genTable) {
	sz := Sizes{
		Orders:   scaled(1500000, cfg.SF),
		Customer: scaled(150000, cfg.SF),
		Part:     scaled(200000, cfg.SF),
		Supplier: scaled(10000, cfg.SF),
		Nation:   NumNations,
		Region:   NumRegions,
	}
	sz.PartSupp = 4 * sz.Part
	region, nation := genRegionNation()
	orders, orderDates := refOrders(cfg, sz)
	lineitem, n := refLineitem(cfg, sz, orderDates)
	sz.Lineitem = n
	return sz, []genTable{
		{"region", region},
		{"nation", nation},
		{"supplier", refSupplier(cfg, sz)},
		{"customer", refCustomer(cfg, sz)},
		{"part", refPart(cfg, sz)},
		{"partsupp", refPartSupp(cfg, sz)},
		{"orders", orders},
		{"lineitem", lineitem},
	}
}

func refSupplier(cfg Config, sz Sizes) map[string]*db.BAT {
	r := newRNG(cfg.Seed ^ 0x05)
	n := sz.Supplier
	key := make([]int64, n)
	nat := make([]int64, n)
	bal := make([]float64, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i)
		nat[i] = int64(r.intn(NumNations))
		bal[i] = -999.99 + r.f64()*10998.98
	}
	return map[string]*db.BAT{
		"s_suppkey":   db.NewI64("s_suppkey", key),
		"s_nationkey": db.NewI64("s_nationkey", nat),
		"s_acctbal":   db.NewF64("s_acctbal", bal),
	}
}

func refCustomer(cfg Config, sz Sizes) map[string]*db.BAT {
	r := newRNG(cfg.Seed ^ 0x0C)
	n := sz.Customer
	key := make([]int64, n)
	nat := make([]int64, n)
	seg := make([]int64, n)
	bal := make([]float64, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i)
		nat[i] = int64(r.intn(NumNations))
		seg[i] = int64(r.intn(NumMktSegments))
		bal[i] = -999.99 + r.f64()*10998.98
	}
	return map[string]*db.BAT{
		"c_custkey":    db.NewI64("c_custkey", key),
		"c_nationkey":  db.NewI64("c_nationkey", nat),
		"c_mktsegment": db.NewI64("c_mktsegment", seg),
		"c_acctbal":    db.NewF64("c_acctbal", bal),
	}
}

func refPart(cfg Config, sz Sizes) map[string]*db.BAT {
	r := newRNG(cfg.Seed ^ 0x70)
	n := sz.Part
	key := make([]int64, n)
	brand := make([]int64, n)
	typ := make([]int64, n)
	size := make([]int64, n)
	container := make([]int64, n)
	price := make([]float64, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i)
		brand[i] = int64(r.intn(NumBrands))
		typ[i] = int64(r.intn(NumTypes))
		size[i] = int64(1 + r.intn(50))
		container[i] = int64(r.intn(NumContainers))
		price[i] = 900 + float64((i%200000)+1)/10
	}
	return map[string]*db.BAT{
		"p_partkey":     db.NewI64("p_partkey", key),
		"p_brand":       db.NewI64("p_brand", brand),
		"p_type":        db.NewI64("p_type", typ),
		"p_size":        db.NewI64("p_size", size),
		"p_container":   db.NewI64("p_container", container),
		"p_retailprice": db.NewF64("p_retailprice", price),
	}
}

func refPartSupp(cfg Config, sz Sizes) map[string]*db.BAT {
	r := newRNG(cfg.Seed ^ 0x75)
	n := sz.PartSupp
	pk := make([]int64, n)
	sk := make([]int64, n)
	cost := make([]float64, n)
	avail := make([]float64, n)
	for i := 0; i < n; i++ {
		pk[i] = int64(i / 4)
		sk[i] = int64((i/4 + (i%4)*(sz.Supplier/4+1)) % sz.Supplier)
		cost[i] = 1 + r.f64()*999
		avail[i] = float64(1 + r.intn(9999))
	}
	return map[string]*db.BAT{
		"ps_partkey":    db.NewI64("ps_partkey", pk),
		"ps_suppkey":    db.NewI64("ps_suppkey", sk),
		"ps_supplycost": db.NewF64("ps_supplycost", cost),
		"ps_availqty":   db.NewF64("ps_availqty", avail),
	}
}

func refOrders(cfg Config, sz Sizes) (map[string]*db.BAT, []int) {
	r := newRNG(cfg.Seed ^ 0x0F)
	n := sz.Orders
	key := make([]int64, n)
	cust := make([]int64, n)
	date := make([]int64, n)
	prio := make([]int64, n)
	status := make([]int64, n)
	total := make([]float64, n)
	ship := make([]int64, n)
	dateOrds := make([]int, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i)
		cust[i] = int64(r.intn(sz.Customer))
		ord := r.intn(totalOrderDays - 151) // leave room for ship dates
		dateOrds[i] = ord
		date[i] = dayNumber(ord)
		prio[i] = int64(r.intn(NumOrderPriorities))
		status[i] = int64(r.intn(3))
		total[i] = 1000 + r.f64()*450000
		ship[i] = int64(r.intn(2))
	}
	return map[string]*db.BAT{
		"o_orderkey":      db.NewI64("o_orderkey", key),
		"o_custkey":       db.NewI64("o_custkey", cust),
		"o_orderdate":     db.NewI64("o_orderdate", date),
		"o_orderpriority": db.NewI64("o_orderpriority", prio),
		"o_orderstatus":   db.NewI64("o_orderstatus", status),
		"o_totalprice":    db.NewF64("o_totalprice", total),
		"o_shippriority":  db.NewI64("o_shippriority", ship),
	}, dateOrds
}

func refLineitem(cfg Config, sz Sizes, orderDates []int) (map[string]*db.BAT, int) {
	r := newRNG(cfg.Seed ^ 0x11)
	var ok, pk, sk, rf, ls, rfls, shipd, commitd, receiptd, mode, instr, late, shipyear []int64
	var qty, price, disc, tax []float64

	for o := 0; o < sz.Orders; o++ {
		lines := 1 + r.intn(7)
		for l := 0; l < lines; l++ {
			ok = append(ok, int64(o))
			pk = append(pk, int64(r.intn(sz.Part)))
			sk = append(sk, int64(r.intn(sz.Supplier)))
			q := float64(1 + r.intn(50))
			qty = append(qty, q)
			price = append(price, q*(900+r.f64()*1000))
			disc = append(disc, float64(r.intn(11))/100)
			tax = append(tax, float64(r.intn(9))/100)
			f := int64(r.intn(NumReturnFlags))
			s := int64(r.intn(NumLineStatus))
			rf = append(rf, f)
			ls = append(ls, s)
			rfls = append(rfls, f*int64(NumLineStatus)+s)
			sd := orderDates[o] + 1 + r.intn(121)
			cd := dayNumber(sd + r.intn(30))
			rd := dayNumber(sd + 1 + r.intn(30))
			shipd = append(shipd, dayNumber(sd))
			commitd = append(commitd, cd)
			receiptd = append(receiptd, rd)
			mode = append(mode, int64(r.intn(NumShipModes)))
			instr = append(instr, int64(r.intn(NumShipInstructs)))
			if cd < rd {
				late = append(late, 1)
			} else {
				late = append(late, 0)
			}
			shipyear = append(shipyear, dayNumber(sd)/10000)
		}
	}
	return map[string]*db.BAT{
		"l_orderkey":      db.NewI64("l_orderkey", ok),
		"l_partkey":       db.NewI64("l_partkey", pk),
		"l_suppkey":       db.NewI64("l_suppkey", sk),
		"l_quantity":      db.NewF64("l_quantity", qty),
		"l_extendedprice": db.NewF64("l_extendedprice", price),
		"l_discount":      db.NewF64("l_discount", disc),
		"l_tax":           db.NewF64("l_tax", tax),
		"l_returnflag":    db.NewI64("l_returnflag", rf),
		"l_linestatus":    db.NewI64("l_linestatus", ls),
		"l_rfls":          db.NewI64("l_rfls", rfls),
		"l_shipdate":      db.NewI64("l_shipdate", shipd),
		"l_commitdate":    db.NewI64("l_commitdate", commitd),
		"l_receiptdate":   db.NewI64("l_receiptdate", receiptd),
		"l_shipmode":      db.NewI64("l_shipmode", mode),
		"l_shipinstruct":  db.NewI64("l_shipinstruct", instr),
		"l_late":          db.NewI64("l_late", late),
		"l_shipyear":      db.NewI64("l_shipyear", shipyear),
	}, len(ok)
}

// TestGenerationMatchesSequential: the parallel fill gives every table,
// every column and every value bit for bit what the sequential generator
// gives, at one, two and four host Ps, and every column is exactly as long
// as its table (the dataset cache keeps no spare capacity). SF 1e-6 makes
// every scaled table one row; SF 0.002 splits orders and lineitem into
// parts at two and four Ps, and SF 0.04 every table but region, nation
// and supplier.
func TestGenerationMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sf := range []float64{1e-6, 0.002, 0.04} {
		for _, seed := range []uint64{0, 1, 12345} {
			cfg := Config{SF: sf, Seed: seed}
			wantSz, want := refGenerate(cfg)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				gotSz, got := generate(cfg)
				at := fmt.Sprintf("SF %g seed %d GOMAXPROCS %d", sf, seed, procs)
				if gotSz != wantSz {
					t.Fatalf("%s: sizes %+v, want %+v", at, gotSz, wantSz)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d tables, want %d", at, len(got), len(want))
				}
				for ti, wt := range want {
					if gt := got[ti]; gt.name != wt.name || len(gt.cols) != len(wt.cols) {
						t.Fatalf("%s: table %d is %s with %d columns, want %s with %d",
							at, ti, gt.name, len(gt.cols), wt.name, len(wt.cols))
					}
					for name, wc := range wt.cols {
						if err := sameColumn(got[ti].cols[name], wc); err != nil {
							t.Fatalf("%s: %s.%s: %v", at, wt.name, name, err)
						}
					}
				}
			}
		}
	}
}

// sameColumn compares a generated column with the oracle's bit for bit,
// and checks that it holds no spare capacity.
func sameColumn(got, want *db.BAT) error {
	if got == nil {
		return fmt.Errorf("missing")
	}
	if got.Kind != want.Kind {
		return fmt.Errorf("kind %v, want %v", got.Kind, want.Kind)
	}
	if len(got.I) != len(want.I) || len(got.F) != len(want.F) {
		return fmt.Errorf("length %d/%d, want %d/%d", len(got.I), len(got.F), len(want.I), len(want.F))
	}
	if cap(got.I) != len(got.I) || cap(got.F) != len(got.F) {
		return fmt.Errorf("capacity %d/%d over length %d/%d", cap(got.I), cap(got.F), len(got.I), len(got.F))
	}
	for i, v := range want.I {
		if got.I[i] != v {
			return fmt.Errorf("row %d = %d, want %d", i, got.I[i], v)
		}
	}
	for i, v := range want.F {
		if math.Float64bits(got.F[i]) != math.Float64bits(v) {
			return fmt.Errorf("row %d = %v, want %v", i, got.F[i], v)
		}
	}
	return nil
}

// TestOnePartAtOneP: at GOMAXPROCS 1 every table fills in one part, which
// runs on the calling goroutine and starts none.
func TestOnePartAtOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{1, minPartRows, 1 << 20} {
		if k := parts(n); k != 1 {
			t.Errorf("parts(%d) = %d at GOMAXPROCS 1, want 1", n, k)
		}
	}
}

// TestPartsCoverEveryRow: the k parts of n rows are contiguous, cover
// every row once, differ in size by at most one, and each runs once, as
// part p of the call.
func TestPartsCoverEveryRow(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 1023, 1024, 3001, 60001} {
		for k := 1; k <= 5; k++ {
			seen := make([]int, n)
			calls := make([]int, k)
			fill(n, k, func(p, lo, hi int) {
				calls[p]++ // each part writes only its own slot and rows
				if lo != partLo(n, k, p) || hi-lo < n/k || hi-lo > n/k+1 {
					t.Errorf("n %d k %d: part %d is [%d, %d)", n, k, p, lo, hi)
				}
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for p, c := range calls {
				if c != 1 {
					t.Errorf("n %d k %d: part %d ran %d times", n, k, p, c)
				}
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n %d k %d: row %d filled %d times", n, k, i, c)
				}
			}
		}
	}
}
