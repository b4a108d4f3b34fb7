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
	"runtime"

	"elasticore/internal/db"
	"elasticore/internal/hashmix"
	"elasticore/internal/hostpool"
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

// Every table fills by position. Each row of a table takes a fixed count
// of draws from the table's stream (supplier 2, customer 3, part 4,
// partsupp 2, orders 6; intn never skips a draw, because scaled floors
// every size at 1), and a stream's k-th draw depends only on k
// (hashmix.Stream.Skip). So a table splits into contiguous parts of rows,
// one per host P, each part's stream skipping to its first row's draw,
// and the parts fill concurrently into the same values one sequential
// stream gives. Lineitem's rows take 13 draws after their order's one,
// so its parts are parts of orders, started by a sequential pre-pass.

// minPartRows is the fewest rows a part gets: a table under twice this
// fills in one part, since a hand-off would cost more than its rows.
const minPartRows = 1024

// parts returns how many parts an n-row table fills in.
func parts(n int) int { return max(1, min(runtime.GOMAXPROCS(0), n/minPartRows)) }

// partLo returns the first row of part p when n rows split into k parts.
func partLo(n, k, p int) int { return p*(n/k) + min(p, n%k) }

// fill calls part(p, lo, hi) once for each of the k parts of n rows, on
// the caller and the host pool; one part runs on the caller alone.
func fill(n, k int, part func(p, lo, hi int)) {
	var g hostpool.Group
	g.Each(k, k, func(p int) { part(p, partLo(n, k, p), partLo(n, k, p+1)) })
}

// fillRows fills an n-row table whose rows each take draws draws of the
// stream seeded seed, handing each part its stream at its first row.
func fillRows(n int, seed uint64, draws int, rows func(r *rng, lo, hi int)) {
	fill(n, parts(n), func(_, lo, hi int) {
		r := newRNG(seed)
		r.Skip(uint64(lo * draws))
		rows(r, lo, hi)
	})
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
	n := sz.Supplier
	key := make([]int64, n)
	nat := make([]int64, n)
	bal := make([]float64, n)
	fillRows(n, cfg.Seed^0x05, 2, func(r *rng, lo, hi int) {
		for i := lo; i < hi; i++ {
			key[i] = int64(i)
			nat[i] = int64(r.intn(NumNations))
			bal[i] = -999.99 + r.f64()*10998.98
		}
	})
	return map[string]*db.BAT{
		"s_suppkey":   db.NewI64("s_suppkey", key),
		"s_nationkey": db.NewI64("s_nationkey", nat),
		"s_acctbal":   db.NewF64("s_acctbal", bal),
	}
}

func genCustomer(cfg Config, sz Sizes) map[string]*db.BAT {
	n := sz.Customer
	key := make([]int64, n)
	nat := make([]int64, n)
	seg := make([]int64, n)
	bal := make([]float64, n)
	fillRows(n, cfg.Seed^0x0C, 3, func(r *rng, lo, hi int) {
		for i := lo; i < hi; i++ {
			key[i] = int64(i)
			nat[i] = int64(r.intn(NumNations))
			seg[i] = int64(r.intn(NumMktSegments))
			bal[i] = -999.99 + r.f64()*10998.98
		}
	})
	return map[string]*db.BAT{
		"c_custkey":    db.NewI64("c_custkey", key),
		"c_nationkey":  db.NewI64("c_nationkey", nat),
		"c_mktsegment": db.NewI64("c_mktsegment", seg),
		"c_acctbal":    db.NewF64("c_acctbal", bal),
	}
}

func genPart(cfg Config, sz Sizes) map[string]*db.BAT {
	n := sz.Part
	key := make([]int64, n)
	brand := make([]int64, n)
	typ := make([]int64, n)
	size := make([]int64, n)
	container := make([]int64, n)
	price := make([]float64, n)
	fillRows(n, cfg.Seed^0x70, 4, func(r *rng, lo, hi int) {
		for i := lo; i < hi; i++ {
			key[i] = int64(i)
			brand[i] = int64(r.intn(NumBrands))
			typ[i] = int64(r.intn(NumTypes))
			size[i] = int64(1 + r.intn(50))
			container[i] = int64(r.intn(NumContainers))
			price[i] = 900 + float64((i%200000)+1)/10
		}
	})
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
	n := sz.PartSupp
	pk := make([]int64, n)
	sk := make([]int64, n)
	cost := make([]float64, n)
	avail := make([]float64, n)
	fillRows(n, cfg.Seed^0x75, 2, func(r *rng, lo, hi int) {
		for i := lo; i < hi; i++ {
			pk[i] = int64(i / 4)
			sk[i] = int64((i/4 + (i%4)*(sz.Supplier/4+1)) % sz.Supplier)
			cost[i] = 1 + r.f64()*999
			avail[i] = float64(1 + r.intn(9999))
		}
	})
	return map[string]*db.BAT{
		"ps_partkey":    db.NewI64("ps_partkey", pk),
		"ps_suppkey":    db.NewI64("ps_suppkey", sk),
		"ps_supplycost": db.NewF64("ps_supplycost", cost),
		"ps_availqty":   db.NewF64("ps_availqty", avail),
	}
}

func genOrders(cfg Config, sz Sizes) (map[string]*db.BAT, []int) {
	n := sz.Orders
	key := make([]int64, n)
	cust := make([]int64, n)
	date := make([]int64, n)
	prio := make([]int64, n)
	status := make([]int64, n)
	total := make([]float64, n)
	ship := make([]int64, n)
	dateOrds := make([]int, n)
	fillRows(n, cfg.Seed^0x0F, 6, func(r *rng, lo, hi int) {
		for i := lo; i < hi; i++ {
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
	})
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

// lineDraws is how many draws one lineitem row takes; an order also takes
// one draw, its line count, before its lines.
const lineDraws = 13

func genLineitem(cfg Config, sz Sizes, orderDates []int) (map[string]*db.BAT, int) {
	// The pre-pass draws each order's line count and skips its lines, so
	// every part of orders learns its first row and its stream before any
	// row is filled, and the columns are sized exactly.
	k := parts(sz.Orders)
	type start struct {
		row int
		r   rng
	}
	starts := make([]start, k)
	r := newRNG(cfg.Seed ^ 0x11)
	n := 0
	for p := range starts {
		starts[p] = start{n, *r}
		for o := partLo(sz.Orders, k, p); o < partLo(sz.Orders, k, p+1); o++ {
			lines := 1 + r.intn(7)
			r.Skip(uint64(lines) * lineDraws)
			n += lines
		}
	}
	// A fresh column is zeroed as it is made, and lineitem's zeroing is
	// a sixth of generation, so the parts make the columns too.
	var is [13][]int64
	var fs [4][]float64
	fill(len(is)+len(fs), min(k, len(is)+len(fs)), func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			if c < len(is) {
				is[c] = make([]int64, n)
			} else {
				fs[c-len(is)] = make([]float64, n)
			}
		}
	})
	ok, pk, sk, rf, ls, rfls := is[0], is[1], is[2], is[3], is[4], is[5]
	shipd, commitd, receiptd, mode, instr := is[6], is[7], is[8], is[9], is[10]
	late := is[11]     // derived: l_commitdate < l_receiptdate
	shipyear := is[12] // derived: year(l_shipdate)
	qty, price, disc, tax := fs[0], fs[1], fs[2], fs[3]

	fill(sz.Orders, k, func(p, lo, hi int) {
		i, r := starts[p].row, starts[p].r
		for o := lo; o < hi; o++ {
			lines := 1 + r.intn(7)
			for l := 0; l < lines; l++ {
				ok[i] = int64(o)
				pk[i] = int64(r.intn(sz.Part))
				sk[i] = int64(r.intn(sz.Supplier))
				q := float64(1 + r.intn(50))
				qty[i] = q
				price[i] = q * (900 + r.f64()*1000)
				disc[i] = float64(r.intn(11)) / 100
				tax[i] = float64(r.intn(9)) / 100
				f := int64(r.intn(NumReturnFlags))
				s := int64(r.intn(NumLineStatus))
				rf[i], ls[i], rfls[i] = f, s, f*int64(NumLineStatus)+s
				sd := orderDates[o] + 1 + r.intn(121)
				cd := dayNumber(sd + r.intn(30))
				rd := dayNumber(sd + 1 + r.intn(30))
				shipd[i], commitd[i], receiptd[i] = dayNumber(sd), cd, rd
				mode[i] = int64(r.intn(NumShipModes))
				instr[i] = int64(r.intn(NumShipInstructs))
				if cd < rd {
					late[i] = 1
				}
				shipyear[i] = dayNumber(sd) / 10000
				i++
			}
		}
	})
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
	}, n
}
