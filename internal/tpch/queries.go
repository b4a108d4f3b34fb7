package tpch

import (
	"fmt"
	"math"

	"elasticore/internal/db"
)

// queries.go provides simplified but structurally faithful plans for all
// 22 TPC-H queries, expressed over the engine's MAL-like operator set.
// Simplifications are documented per query; the properties the paper's
// evaluation exploits are preserved: Q6's tunable-selectivity scan, the
// join-heavy shapes of Q8/Q9 ("largest number of join operations"), the
// IN-predicate lists of Q19/Q22, grouped aggregations, and anti-joins.
//
// Conventions: every plan ends with either a scalar bound to "result"
// (SumF/Count) or merged groups in variables "gk"/"gs". Parameters vary
// deterministically with the seed (the mixed-phases workload submits each
// query with a per-client seed).

// QueryCount is the number of TPC-H queries.
const QueryCount = 22

// Build returns the plan for query number n (1-based) with seed-derived
// parameters. It panics on out-of-range n (caller bug).
func Build(n int, seed uint64) *db.Plan {
	builders := [QueryCount]func(uint64) *db.Plan{
		BuildQ1, BuildQ2, BuildQ3, BuildQ4, BuildQ5, BuildQ6, BuildQ7,
		BuildQ8, BuildQ9, BuildQ10, BuildQ11, BuildQ12, BuildQ13, BuildQ14,
		BuildQ15, BuildQ16, BuildQ17, BuildQ18, BuildQ19, BuildQ20,
		BuildQ21, BuildQ22,
	}
	if n < 1 || n > QueryCount {
		panic(fmt.Sprintf("tpch: query %d out of range 1..%d", n, QueryCount))
	}
	return builders[n-1](seed)
}

// intBelow (v < hi) and intAbove (v > lo) are one-sided comparisons in the
// half-open range form the scan loops inline. Dates are yyyymmdd integers
// and codes small dictionary indices, so the open side's MinInt64/MaxInt64
// bound is exact: no column value is MaxInt64, the one intAbove leaves out.
func intBelow(hi int64) db.Pred { return db.PredIRange(math.MinInt64, hi) }
func intAbove(lo int64) db.Pred { return db.PredIRange(lo+1, math.MaxInt64) }

// pYear picks a parameter year in 1993..1997.
func pYear(r *rng) int64 { return int64(1993 + r.intn(5)) }

// BuildQ1 is the pricing summary report: scan lineitem up to a date,
// group by (returnflag, linestatus) — the combined l_rfls code — and sum
// extended price. (Simplified: one aggregate instead of eight.)
func BuildQ1(seed uint64) *db.Plan {
	r := newRNG(seed ^ 1)
	cutoff := EncodeDate(1998, 9, 1) - int64(r.intn(60))
	return &db.Plan{Name: "Q1", Stages: []db.StageFn{
		db.ThetaSelect("lineitem", "l_shipdate", "c1", intBelow(cutoff+1)),
		db.Projection("c1", "lineitem", "l_rfls", "k"),
		db.Projection("c1", "lineitem", "l_extendedprice", "v"),
		db.GroupSum("k", "v", "p1"),
		db.GroupMerge("p1", "gk", "gs"),
	}}
}

// BuildQ2 is the minimum-cost supplier: parts of one size drive a join
// into partsupp, grouping supply cost per supplier. (Simplified: sum
// instead of min, no region correlation subquery.)
func BuildQ2(seed uint64) *db.Plan {
	r := newRNG(seed ^ 2)
	size := int64(1 + r.intn(50))
	return &db.Plan{Name: "Q2", Stages: []db.StageFn{
		db.ThetaSelect("part", "p_size", "cp", db.PredIEq(size)),
		db.Projection("cp", "part", "p_partkey", "pkeys"),
		db.BuildMap("pkeys", "", "pset"),
		db.ScanAll("partsupp", "ps_partkey", "cps"),
		db.ProbeSemi("cps", "partsupp", "ps_partkey", "pset", "c2"),
		db.Projection("c2", "partsupp", "ps_supplycost", "costs"),
		db.Projection("c2", "partsupp", "ps_suppkey", "skeys"),
		db.GroupSum("skeys", "costs", "p2"),
		db.GroupMerge("p2", "gk", "gs"),
		db.TopN("gk", "gs", 100),
	}}
}

// BuildQ3 is the shipping priority query: customers of one market
// segment, their orders before a date, the lineitems shipped after it,
// revenue grouped by order, top 10.
func BuildQ3(seed uint64) *db.Plan {
	r := newRNG(seed ^ 3)
	seg := int64(r.intn(NumMktSegments))
	cut := EncodeDate(1995, 3, 1) + int64(r.intn(28))
	return &db.Plan{Name: "Q3", Stages: []db.StageFn{
		db.ThetaSelect("customer", "c_mktsegment", "cc", db.PredIEq(seg)),
		db.Projection("cc", "customer", "c_custkey", "ckeys"),
		db.BuildMap("ckeys", "", "cset"),
		db.ThetaSelect("orders", "o_orderdate", "co", intBelow(cut)),
		db.ProbeSemi("co", "orders", "o_custkey", "cset", "co2"),
		db.Projection("co2", "orders", "o_orderkey", "okeys"),
		db.BuildMap("okeys", "", "oset"),
		db.ThetaSelect("lineitem", "l_shipdate", "cl", intAbove(cut)),
		db.ProbeSemi("cl", "lineitem", "l_orderkey", "oset", "cl2"),
		db.Projection("cl2", "lineitem", "l_extendedprice", "price"),
		db.Projection("cl2", "lineitem", "l_discount", "disc"),
		db.MapF2("price", "disc", "rev", func(p, d float64) float64 { return p * (1 - d) }),
		db.Projection("cl2", "lineitem", "l_orderkey", "lok"),
		db.GroupSum("lok", "rev", "p3"),
		db.GroupMerge("p3", "gk", "gs"),
		db.TopN("gk", "gs", 10),
	}}
}

// BuildQ4 is order priority checking: orders of one quarter having at
// least one late lineitem, counted per priority.
func BuildQ4(seed uint64) *db.Plan {
	r := newRNG(seed ^ 4)
	y := pYear(r)
	m := int64(1 + 3*r.intn(4))
	lo, hi := y*10000+m*100, y*10000+(m+3)*100
	return &db.Plan{Name: "Q4", Stages: []db.StageFn{
		db.ThetaSelect("lineitem", "l_late", "cl", db.PredIEq(1)),
		db.Projection("cl", "lineitem", "l_orderkey", "lok"),
		db.BuildMap("lok", "", "lateset"),
		db.ThetaSelect("orders", "o_orderdate", "co", db.PredIRange(lo, hi)),
		db.ProbeSemi("co", "orders", "o_orderkey", "lateset", "co2"),
		db.Projection("co2", "orders", "o_orderpriority", "prio"),
		db.GroupSum("prio", "", "p4"),
		db.GroupMerge("p4", "gk", "gs"),
	}}
}

// BuildQ5 is local supplier volume: customers and orders of one year
// drive lineitem revenue grouped by supplier. (Simplified: the
// nation-region equijoin chain is collapsed into the customer filter.)
func BuildQ5(seed uint64) *db.Plan {
	r := newRNG(seed ^ 5)
	region := int64(r.intn(NumRegions))
	y := pYear(r)
	return &db.Plan{Name: "Q5", Stages: []db.StageFn{
		db.ThetaSelect("customer", "c_nationkey", "cc",
			db.Pred{I: func(v int64) bool { return v%NumRegions == region }}),
		db.Projection("cc", "customer", "c_custkey", "ckeys"),
		db.BuildMap("ckeys", "", "cset"),
		db.ThetaSelect("orders", "o_orderdate", "co", db.PredIRange(y*10000, (y+1)*10000)),
		db.ProbeSemi("co", "orders", "o_custkey", "cset", "co2"),
		db.Projection("co2", "orders", "o_orderkey", "okeys"),
		db.BuildMap("okeys", "", "oset"),
		db.ScanAll("lineitem", "l_orderkey", "cl"),
		db.ProbeSemi("cl", "lineitem", "l_orderkey", "oset", "cl2"),
		db.Projection("cl2", "lineitem", "l_extendedprice", "price"),
		db.Projection("cl2", "lineitem", "l_discount", "disc"),
		db.MapF2("price", "disc", "rev", func(p, d float64) float64 { return p * (1 - d) }),
		db.Projection("cl2", "lineitem", "l_suppkey", "sk"),
		db.GroupSum("sk", "rev", "p5"),
		db.GroupMerge("p5", "gk", "gs"),
		db.TopN("gk", "gs", 10),
	}}
}

// Q6Params are the forecasting revenue change parameters.
type Q6Params struct {
	Year     int64
	Discount float64
	Quantity float64
}

// Q6ParamsFromSeed derives the paper's parameter ranges: year 1993..1997,
// discount 0.02..0.09, quantity 24 or 25.
func Q6ParamsFromSeed(seed uint64) Q6Params {
	r := newRNG(seed ^ 6)
	return Q6Params{
		Year:     pYear(r),
		Discount: float64(2+r.intn(8)) / 100,
		Quantity: float64(24 + r.intn(2)),
	}
}

// BuildQ6 is the forecasting revenue change query of Figure 3, exactly as
// listed: three-predicate scan, two projections, a multiply and a sum.
func BuildQ6(seed uint64) *db.Plan {
	p := Q6ParamsFromSeed(seed)
	return BuildQ6With(p)
}

// BuildQ6With builds Q6 with explicit parameters (microbenchmarks sweep
// selectivity through these).
func BuildQ6With(p Q6Params) *db.Plan {
	return &db.Plan{Name: "Q6", Stages: []db.StageFn{
		db.ThetaSelect("lineitem", "l_quantity", "X_1", db.PredFLess(p.Quantity)),
		db.SubSelect("X_1", "lineitem", "l_shipdate", "X_2",
			db.PredIRange(p.Year*10000+101, (p.Year+1)*10000+101)),
		db.SubSelect("X_2", "lineitem", "l_discount", "X_3",
			db.PredFRange(p.Discount-0.01, p.Discount+0.01)),
		db.Projection("X_3", "lineitem", "l_extendedprice", "X_4"),
		db.Projection("X_3", "lineitem", "l_discount", "X_5"),
		db.MapF2("X_4", "X_5", "X_6", func(x, y float64) float64 { return x * y }),
		db.SumF("X_6", "result"),
	}}
}

// BuildQ7 is volume shipping: lineitems of two ship-years from suppliers
// of one nation, revenue grouped by ship year.
func BuildQ7(seed uint64) *db.Plan {
	r := newRNG(seed ^ 7)
	nation := int64(r.intn(NumNations))
	return &db.Plan{Name: "Q7", Stages: []db.StageFn{
		db.ThetaSelect("supplier", "s_nationkey", "cs", db.PredIEq(nation)),
		db.Projection("cs", "supplier", "s_suppkey", "skeys"),
		db.BuildMap("skeys", "", "sset"),
		db.ThetaSelect("lineitem", "l_shipdate", "cl",
			db.PredIRange(EncodeDate(1995, 1, 1), EncodeDate(1997, 1, 1))),
		db.ProbeSemi("cl", "lineitem", "l_suppkey", "sset", "cl2"),
		db.Projection("cl2", "lineitem", "l_extendedprice", "price"),
		db.Projection("cl2", "lineitem", "l_discount", "disc"),
		db.MapF2("price", "disc", "rev", func(p, d float64) float64 { return p * (1 - d) }),
		db.Projection("cl2", "lineitem", "l_shipyear", "yr"),
		db.GroupSum("yr", "rev", "p7"),
		db.GroupMerge("p7", "gk", "gs"),
	}}
}

// BuildQ8 is national market share: three joins narrow lineitem by part
// type, supplier region and order window; revenue grouped by ship year.
// The paper singles Q8 out for its join count and parallelism degree.
func BuildQ8(seed uint64) *db.Plan {
	r := newRNG(seed ^ 8)
	typ := int64(r.intn(NumTypes))
	region := int64(r.intn(NumRegions))
	return &db.Plan{Name: "Q8", Stages: []db.StageFn{
		db.ThetaSelect("part", "p_type", "cp", db.PredIEq(typ)),
		db.Projection("cp", "part", "p_partkey", "pkeys"),
		db.BuildMap("pkeys", "", "pset"),
		db.ThetaSelect("supplier", "s_nationkey", "cs",
			db.Pred{I: func(v int64) bool { return v%NumRegions == region }}),
		db.Projection("cs", "supplier", "s_suppkey", "skeys"),
		db.BuildMap("skeys", "", "sset"),
		db.ThetaSelect("orders", "o_orderdate", "co",
			db.PredIRange(EncodeDate(1995, 1, 1), EncodeDate(1997, 1, 1))),
		db.Projection("co", "orders", "o_orderkey", "okeys"),
		db.BuildMap("okeys", "", "oset"),
		db.ScanAll("lineitem", "l_partkey", "cl"),
		db.ProbeSemi("cl", "lineitem", "l_partkey", "pset", "cl2"),
		db.ProbeSemi("cl2", "lineitem", "l_suppkey", "sset", "cl3"),
		db.ProbeSemi("cl3", "lineitem", "l_orderkey", "oset", "cl4"),
		db.Projection("cl4", "lineitem", "l_extendedprice", "price"),
		db.Projection("cl4", "lineitem", "l_discount", "disc"),
		db.MapF2("price", "disc", "rev", func(p, d float64) float64 { return p * (1 - d) }),
		db.Projection("cl4", "lineitem", "l_shipyear", "yr"),
		db.GroupSum("yr", "rev", "p8"),
		db.GroupMerge("p8", "gk", "gs"),
	}}
}

// BuildQ9 is product type profit: parts of one brand family joined into
// lineitem, supplier nation fetched as the group key — a fetch join plus
// grouped aggregation (the other join-heavy query the paper highlights).
func BuildQ9(seed uint64) *db.Plan {
	r := newRNG(seed ^ 9)
	brand := int64(r.intn(NumBrands))
	return &db.Plan{Name: "Q9", Stages: []db.StageFn{
		db.ThetaSelect("part", "p_brand", "cp", db.PredIEq(brand)),
		db.Projection("cp", "part", "p_partkey", "pkeys"),
		db.BuildMap("pkeys", "", "pset"),
		db.ScanAll("supplier", "s_suppkey", "cs"),
		db.Projection("cs", "supplier", "s_suppkey", "allsk"),
		db.Projection("cs", "supplier", "s_nationkey", "allsn"),
		db.BuildMap("allsk", "allsn", "s2n"),
		db.ScanAll("lineitem", "l_partkey", "cl"),
		db.ProbeSemi("cl", "lineitem", "l_partkey", "pset", "cl2"),
		db.ProbeFetch("cl2", "lineitem", "l_suppkey", "s2n", "cl3", "nat"),
		db.Projection("cl3", "lineitem", "l_extendedprice", "price"),
		db.Projection("cl3", "lineitem", "l_discount", "disc"),
		db.MapF2("price", "disc", "profit", func(p, d float64) float64 { return p * (1 - d) }),
		db.GroupSum("nat", "profit", "p9"),
		db.GroupMerge("p9", "gk", "gs"),
	}}
}

// BuildQ10 is returned item reporting: returned lineitems within an order
// window, revenue grouped by customer, top 20.
func BuildQ10(seed uint64) *db.Plan {
	r := newRNG(seed ^ 10)
	y := pYear(r)
	m := int64(1 + 3*r.intn(4))
	return &db.Plan{Name: "Q10", Stages: []db.StageFn{
		db.ThetaSelect("orders", "o_orderdate", "co",
			db.PredIRange(y*10000+m*100, y*10000+(m+3)*100)),
		db.Projection("co", "orders", "o_orderkey", "okeys"),
		db.Projection("co", "orders", "o_custkey", "ocust"),
		db.BuildMap("okeys", "ocust", "o2c"),
		db.ThetaSelect("lineitem", "l_returnflag", "cl", db.PredIEq(0)), // 0 encodes 'A'
		db.ProbeFetch("cl", "lineitem", "l_orderkey", "o2c", "cl2", "cust"),
		db.Projection("cl2", "lineitem", "l_extendedprice", "price"),
		db.Projection("cl2", "lineitem", "l_discount", "disc"),
		db.MapF2("price", "disc", "rev", func(p, d float64) float64 { return p * (1 - d) }),
		db.GroupSum("cust", "rev", "p10"),
		db.GroupMerge("p10", "gk", "gs"),
		db.TopN("gk", "gs", 20),
	}}
}

// BuildQ11 is important stock identification: partsupp value of one
// nation's suppliers grouped by part, top 50.
func BuildQ11(seed uint64) *db.Plan {
	r := newRNG(seed ^ 11)
	nation := int64(r.intn(NumNations))
	return &db.Plan{Name: "Q11", Stages: []db.StageFn{
		db.ThetaSelect("supplier", "s_nationkey", "cs", db.PredIEq(nation)),
		db.Projection("cs", "supplier", "s_suppkey", "skeys"),
		db.BuildMap("skeys", "", "sset"),
		db.ScanAll("partsupp", "ps_suppkey", "cps"),
		db.ProbeSemi("cps", "partsupp", "ps_suppkey", "sset", "c2"),
		db.Projection("c2", "partsupp", "ps_supplycost", "cost"),
		db.Projection("c2", "partsupp", "ps_availqty", "avail"),
		db.MapF2("cost", "avail", "value", func(c, a float64) float64 { return c * a }),
		db.Projection("c2", "partsupp", "ps_partkey", "pk"),
		db.GroupSum("pk", "value", "p11"),
		db.GroupMerge("p11", "gk", "gs"),
		db.TopN("gk", "gs", 50),
	}}
}
