package tpch

import (
	"math"
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
