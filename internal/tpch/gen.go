// Package tpch generates a deterministic TPC-H-shaped dataset directly
// into the simulated columnar store and provides simplified but
// structurally faithful plans for all 22 benchmark queries. String
// attributes are dictionary-encoded as small integers (the engine stores
// 8-byte tails, like MonetDB BAT codes); dates are yyyymmdd integers.
//
// Row counts scale with the configured scale factor from the official
// cardinalities (lineitem ~ 6,000,000 x SF). Distributions preserve the
// properties the paper's evaluation relies on: Q6's selectivity knobs,
// uniform l_quantity, FK correlations between orders and lineitem, and
// the skewless uniform keys of dbgen.
package tpch

import (
	"fmt"
	"math"

	"elasticore/internal/db"
	"elasticore/internal/hashmix"
)

// Dictionary sizes for encoded string attributes.
const (
	NumReturnFlags     = 3 // A, N, R
	NumLineStatus      = 2 // O, F
	NumShipModes       = 7
	NumShipInstructs   = 4
	NumOrderPriorities = 5
	NumMktSegments     = 5
	NumBrands          = 25
	NumTypes           = 150
	NumContainers      = 40
	NumNations         = 25
	NumRegions         = 5
)

// Config controls generation.
type Config struct {
	// SF is the scale factor; 1.0 is the paper's 1 GB database.
	SF float64
	// Seed makes independent datasets; zero selects a fixed default.
	Seed uint64
	// NoCache bypasses the process-wide dataset value cache, forcing a
	// full regeneration (the pre-cache cost profile). Used by equivalence
	// benches; the generated values are identical either way.
	NoCache bool
}

// Sizes holds the generated row counts.
type Sizes struct {
	Lineitem, Orders, Customer, Part, PartSupp, Supplier, Nation, Region int
}

// Dataset records what was loaded.
type Dataset struct {
	Config Config
	Sizes  Sizes
}

// rng is a SplitMix64 generator (hashmix.Stream): deterministic,
// seedable, stdlib-free.
type rng struct{ hashmix.Stream }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = hashmix.Golden
	}
	return &rng{hashmix.Stream{State: seed}}
}

func (r *rng) next() uint64 { return r.Next() }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// f64 returns a uniform value in [0, 1).
func (r *rng) f64() float64 { return float64(r.next()>>11) / float64(1<<53) }

// Date handling: dates are yyyymmdd integers over 1992-01-01..1998-12-01,
// like dbgen's order-date window.

// EncodeDate packs a (year, month, day) triple.
func EncodeDate(y, m, d int) int64 { return int64(y*10000 + m*100 + d) }

// dayNumber maps a date ordinal (0-based from 1992-01-01, 30-day months)
// to yyyymmdd. The simplified calendar keeps comparisons and windows
// correct (all comparisons are on the encoded integers).
func dayNumber(ord int) int64 {
	y := 1992 + ord/360
	m := (ord%360)/30 + 1
	d := ord%30 + 1
	return EncodeDate(y, m, d)
}

// totalOrderDays is the generation window in day ordinals.
const totalOrderDays = 7 * 360 // 1992..1998

func scaled(base int, sf float64) int {
	n := int(float64(base) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

// Load registers every TPC-H table into the store and returns the dataset
// summary. Tables must not already exist.
//
// Generation is the host-CPU-expensive part of building a rig, and
// experiments build many rigs over the identical (SF, Seed) dataset, so
// the generated column vectors are memoized process-wide (see cache.go).
// Each store still gets fresh BAT headers with their own simulated
// regions; only the immutable Go-side value slices are shared. Base-table
// values are never mutated by query execution, so sharing is safe across
// stores and across concurrently running rigs.
func Load(store *db.Store, cfg Config) (*Dataset, error) {
	// !(SF > 0) also catches NaN; lineitem, the largest table, holds up
	// to 7 lines per order, so its row count bounds every other's.
	if !(cfg.SF > 0) || 7*1500000*cfg.SF >= math.MaxInt {
		return nil, fmt.Errorf("tpch: scale factor must be positive, finite and fit int row counts, got %g", cfg.SF)
	}
	sz, tables := datasetFor(cfg)
	for _, tbl := range tables {
		cols := make(map[string]*db.BAT, len(tbl.cols))
		for name, c := range tbl.cols {
			// Fresh headers per store: placement state is per machine.
			if c.Kind == db.KindI64 {
				cols[name] = db.NewI64(name, c.I)
			} else {
				cols[name] = db.NewF64(name, c.F)
			}
		}
		if _, err := store.CreateTable(tbl.name, cols); err != nil {
			return nil, err
		}
	}
	return &Dataset{Config: cfg, Sizes: sz}, nil
}

// genTable is one generated table: template column BATs whose value
// slices are shared with every store the dataset is loaded into.
type genTable struct {
	name string
	cols map[string]*db.BAT
}

// generate builds the full dataset for the config in registration order.
func generate(cfg Config) (Sizes, []genTable) {
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
	orders, orderDates := genOrders(cfg, sz)
	lineitem, n := genLineitem(cfg, sz, orderDates)
	sz.Lineitem = n
	tables := []genTable{
		{"region", region},
		{"nation", nation},
		{"supplier", genSupplier(cfg, sz)},
		{"customer", genCustomer(cfg, sz)},
		{"part", genPart(cfg, sz)},
		{"partsupp", genPartSupp(cfg, sz)},
		{"orders", orders},
		{"lineitem", lineitem},
	}
	return sz, tables
}

func genRegionNation() (region, nation map[string]*db.BAT) {
	rk := make([]int64, NumRegions)
	rn := make([]int64, NumRegions)
	for i := range rk {
		rk[i], rn[i] = int64(i), int64(i)
	}
	region = map[string]*db.BAT{
		"r_regionkey": db.NewI64("r_regionkey", rk),
		"r_name":      db.NewI64("r_name", rn),
	}
	nk := make([]int64, NumNations)
	nn := make([]int64, NumNations)
	nr := make([]int64, NumNations)
	for i := range nk {
		nk[i], nn[i], nr[i] = int64(i), int64(i), int64(i%NumRegions)
	}
	nation = map[string]*db.BAT{
		"n_nationkey": db.NewI64("n_nationkey", nk),
		"n_name":      db.NewI64("n_name", nn),
		"n_regionkey": db.NewI64("n_regionkey", nr),
	}
	return region, nation
}

func genSupplier(cfg Config, sz Sizes) map[string]*db.BAT {
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

func genCustomer(cfg Config, sz Sizes) map[string]*db.BAT {
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

func genPart(cfg Config, sz Sizes) map[string]*db.BAT {
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

func genPartSupp(cfg Config, sz Sizes) map[string]*db.BAT {
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

func genOrders(cfg Config, sz Sizes) (map[string]*db.BAT, []int) {
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

func genLineitem(cfg Config, sz Sizes, orderDates []int) (map[string]*db.BAT, int) {
	r := newRNG(cfg.Seed ^ 0x11)
	// An order has 1–7 lines, 4 on average with a standard deviation of 2:
	// the total exceeds its mean by 4 standard deviations of the sum
	// (8·√orders) once in some 30 000 datasets, so the columns are sized
	// once: a column that regrew would copy itself and keep the spare
	// capacity in the dataset cache.
	est := sz.Orders*4 + 8*int(math.Sqrt(float64(sz.Orders))) + 7
	ok := make([]int64, 0, est)
	pk := make([]int64, 0, est)
	sk := make([]int64, 0, est)
	qty := make([]float64, 0, est)
	price := make([]float64, 0, est)
	disc := make([]float64, 0, est)
	tax := make([]float64, 0, est)
	rf := make([]int64, 0, est)
	ls := make([]int64, 0, est)
	rfls := make([]int64, 0, est)
	shipd := make([]int64, 0, est)
	commitd := make([]int64, 0, est)
	receiptd := make([]int64, 0, est)
	mode := make([]int64, 0, est)
	instr := make([]int64, 0, est)
	late := make([]int64, 0, est)     // derived: l_commitdate < l_receiptdate
	shipyear := make([]int64, 0, est) // derived: year(l_shipdate)

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
