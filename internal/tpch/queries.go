package tpch

import (
	"fmt"
	"math"

	"elasticore/internal/db"
)

// queries.go states simplified but structurally faithful plans for all 22
// TPC-H queries as data: each is a function from a seed to a db.PlanSpec,
// the MAL-like program of the paper's Figure 3 — named steps over named
// variables, no code. Simplifications are documented per query; the
// properties the paper's evaluation exploits are preserved: Q6's
// tunable-selectivity scan, the join-heavy shapes of Q8/Q9 ("largest number
// of join operations"), the IN-predicate lists of Q19/Q22, grouped
// aggregations, and anti-joins.
//
// Conventions: every plan ends with either a scalar bound to "result"
// (Sum/Count) or merged groups in variables "gk"/"gs". Parameters vary
// deterministically with the seed (the mixed-phases workload submits each
// query with a per-client seed).

// QueryCount is the number of TPC-H queries.
const QueryCount = 22

// Spec returns the declarative plan of query number n (1-based) with
// seed-derived parameters. It panics on out-of-range n (caller bug).
func Spec(n int, seed uint64) db.PlanSpec {
	specs := [QueryCount]func(uint64) db.PlanSpec{
		q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11,
		q12, q13, q14, q15, q16, q17, q18, q19, q20, q21, q22,
	}
	if n < 1 || n > QueryCount {
		panic(fmt.Sprintf("tpch: query %d out of range 1..%d", n, QueryCount))
	}
	return specs[n-1](seed)
}

// Build returns a fresh executable plan for query number n with
// seed-derived parameters: Spec(n, seed) lowered without the catalog check,
// which TestQuerySpecsCompile runs once for every query instead of every
// caller once per plan (a fleet run builds thousands).
func Build(n int, seed uint64) *db.Plan { return Spec(n, seed).Lower() }

// intBelow (v < hi), intAbove (v > lo) and floatAbove (v > lo) are
// one-sided comparisons in the range forms the scan loops inline. Dates are
// yyyymmdd integers and codes small dictionary indices, so the open side's
// MinInt64/MaxInt64 bound is exact: no column value is MaxInt64, the one
// intAbove leaves out. floatAbove starts its closed range at the next
// float64 after lo.
func intBelow(hi int64) db.Pred { return db.PredIRange(math.MinInt64, hi) }
func intAbove(lo int64) db.Pred { return db.PredIRange(lo+1, math.MaxInt64) }
func floatAbove(lo float64) db.Pred {
	return db.PredFRange(math.Nextafter(lo, math.Inf(1)), math.Inf(1))
}

// nationsOf matches the nation keys of one region. Nation k lies in region
// k % NumRegions and the keys are 0 … NumNations-1 = 5*NumRegions-1, so a
// region's nations are the five keys NumRegions apart starting at its own.
func nationsOf(region int64) db.Pred {
	return db.PredIIn(region, region+NumRegions, region+2*NumRegions, region+3*NumRegions, region+4*NumRegions)
}

// pYear picks a parameter year in 1993..1997.
func pYear(r *rng) int64 { return int64(1993 + r.intn(5)) }

// q1 is the pricing summary report: scan lineitem up to a date,
// group by (returnflag, linestatus) — the combined l_rfls code — and sum
// extended price. (Simplified: one aggregate instead of eight.)
func q1(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 1)
	cutoff := EncodeDate(1998, 9, 1) - int64(r.intn(60))
	return db.PlanSpec{Name: "Q1", Ops: []db.OpSpec{
		db.Scan("lineitem", "l_shipdate", "c1", intBelow(cutoff+1)),
		db.Project("c1", "lineitem", "l_rfls", "k"),
		db.Project("c1", "lineitem", "l_extendedprice", "v"),
		db.GroupSum("k", "v", "p1"),
		db.GroupMerge("p1", "gk", "gs"),
	}}
}

// q2 is the minimum-cost supplier: parts of one size drive a join
// into partsupp, grouping supply cost per supplier. (Simplified: sum
// instead of min, no region correlation subquery.)
func q2(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 2)
	size := int64(1 + r.intn(50))
	return db.PlanSpec{Name: "Q2", Ops: []db.OpSpec{
		db.Scan("part", "p_size", "cp", db.PredIEq(size)),
		db.Project("cp", "part", "p_partkey", "pkeys"),
		db.Build("pkeys", "", "pset"),
		db.ScanAll("partsupp", "ps_partkey", "cps"),
		db.ProbeSemi("cps", "partsupp", "ps_partkey", "pset", "c2"),
		db.Project("c2", "partsupp", "ps_supplycost", "costs"),
		db.Project("c2", "partsupp", "ps_suppkey", "skeys"),
		db.GroupSum("skeys", "costs", "p2"),
		db.GroupMerge("p2", "gk", "gs"),
		db.TopN("gk", "gs", 100),
	}}
}

// q3 is the shipping priority query: customers of one market
// segment, their orders before a date, the lineitems shipped after it,
// revenue grouped by order, top 10.
func q3(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 3)
	seg := int64(r.intn(NumMktSegments))
	cut := EncodeDate(1995, 3, 1) + int64(r.intn(28))
	return db.PlanSpec{Name: "Q3", Ops: []db.OpSpec{
		db.Scan("customer", "c_mktsegment", "cc", db.PredIEq(seg)),
		db.Project("cc", "customer", "c_custkey", "ckeys"),
		db.Build("ckeys", "", "cset"),
		db.Scan("orders", "o_orderdate", "co", intBelow(cut)),
		db.ProbeSemi("co", "orders", "o_custkey", "cset", "co2"),
		db.Project("co2", "orders", "o_orderkey", "okeys"),
		db.Build("okeys", "", "oset"),
		db.Scan("lineitem", "l_shipdate", "cl", intAbove(cut)),
		db.ProbeSemi("cl", "lineitem", "l_orderkey", "oset", "cl2"),
		db.Project("cl2", "lineitem", "l_extendedprice", "price"),
		db.Project("cl2", "lineitem", "l_discount", "disc"),
		db.Map2("price", "disc", "rev", db.MapMulComplement),
		db.Project("cl2", "lineitem", "l_orderkey", "lok"),
		db.GroupSum("lok", "rev", "p3"),
		db.GroupMerge("p3", "gk", "gs"),
		db.TopN("gk", "gs", 10),
	}}
}

// q4 is order priority checking: orders of one quarter having at
// least one late lineitem, counted per priority.
func q4(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 4)
	y := pYear(r)
	m := int64(1 + 3*r.intn(4))
	lo, hi := y*10000+m*100, y*10000+(m+3)*100
	return db.PlanSpec{Name: "Q4", Ops: []db.OpSpec{
		db.Scan("lineitem", "l_late", "cl", db.PredIEq(1)),
		db.Project("cl", "lineitem", "l_orderkey", "lok"),
		db.Build("lok", "", "lateset"),
		db.Scan("orders", "o_orderdate", "co", db.PredIRange(lo, hi)),
		db.ProbeSemi("co", "orders", "o_orderkey", "lateset", "co2"),
		db.Project("co2", "orders", "o_orderpriority", "prio"),
		db.GroupSum("prio", "", "p4"),
		db.GroupMerge("p4", "gk", "gs"),
	}}
}

// q5 is local supplier volume: customers and orders of one year
// drive lineitem revenue grouped by supplier. (Simplified: the
// nation-region equijoin chain is collapsed into the customer filter.)
func q5(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 5)
	region := int64(r.intn(NumRegions))
	y := pYear(r)
	return db.PlanSpec{Name: "Q5", Ops: []db.OpSpec{
		db.Scan("customer", "c_nationkey", "cc", nationsOf(region)),
		db.Project("cc", "customer", "c_custkey", "ckeys"),
		db.Build("ckeys", "", "cset"),
		db.Scan("orders", "o_orderdate", "co", db.PredIRange(y*10000, (y+1)*10000)),
		db.ProbeSemi("co", "orders", "o_custkey", "cset", "co2"),
		db.Project("co2", "orders", "o_orderkey", "okeys"),
		db.Build("okeys", "", "oset"),
		db.ScanAll("lineitem", "l_orderkey", "cl"),
		db.ProbeSemi("cl", "lineitem", "l_orderkey", "oset", "cl2"),
		db.Project("cl2", "lineitem", "l_extendedprice", "price"),
		db.Project("cl2", "lineitem", "l_discount", "disc"),
		db.Map2("price", "disc", "rev", db.MapMulComplement),
		db.Project("cl2", "lineitem", "l_suppkey", "sk"),
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

// q6 is the forecasting revenue change query of Figure 3, exactly as
// listed: three-predicate scan, two projections, a multiply and a sum.
func q6(seed uint64) db.PlanSpec { return q6With(Q6ParamsFromSeed(seed)) }

func q6With(p Q6Params) db.PlanSpec {
	return db.PlanSpec{Name: "Q6", Ops: []db.OpSpec{
		db.Scan("lineitem", "l_quantity", "X_1", db.PredFLess(p.Quantity)),
		db.Refine("X_1", "lineitem", "l_shipdate", "X_2",
			db.PredIRange(p.Year*10000+101, (p.Year+1)*10000+101)),
		db.Refine("X_2", "lineitem", "l_discount", "X_3",
			db.PredFRange(p.Discount-0.01, p.Discount+0.01)),
		db.Project("X_3", "lineitem", "l_extendedprice", "X_4"),
		db.Project("X_3", "lineitem", "l_discount", "X_5"),
		db.Map2("X_4", "X_5", "X_6", db.MapMul),
		db.Sum("X_6", "result"),
	}}
}

// BuildQ6 is Build(6, seed): the query every single-query experiment runs.
func BuildQ6(seed uint64) *db.Plan { return q6(seed).Lower() }

// BuildQ6With builds Q6 with explicit parameters (microbenchmarks sweep
// selectivity through these).
func BuildQ6With(p Q6Params) *db.Plan { return q6With(p).Lower() }

// q7 is volume shipping: lineitems of two ship-years from suppliers
// of one nation, revenue grouped by ship year.
func q7(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 7)
	nation := int64(r.intn(NumNations))
	return db.PlanSpec{Name: "Q7", Ops: []db.OpSpec{
		db.Scan("supplier", "s_nationkey", "cs", db.PredIEq(nation)),
		db.Project("cs", "supplier", "s_suppkey", "skeys"),
		db.Build("skeys", "", "sset"),
		db.Scan("lineitem", "l_shipdate", "cl",
			db.PredIRange(EncodeDate(1995, 1, 1), EncodeDate(1997, 1, 1))),
		db.ProbeSemi("cl", "lineitem", "l_suppkey", "sset", "cl2"),
		db.Project("cl2", "lineitem", "l_extendedprice", "price"),
		db.Project("cl2", "lineitem", "l_discount", "disc"),
		db.Map2("price", "disc", "rev", db.MapMulComplement),
		db.Project("cl2", "lineitem", "l_shipyear", "yr"),
		db.GroupSum("yr", "rev", "p7"),
		db.GroupMerge("p7", "gk", "gs"),
	}}
}

// q8 is national market share: three joins narrow lineitem by part
// type, supplier region and order window; revenue grouped by ship year.
// The paper singles Q8 out for its join count and parallelism degree.
func q8(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 8)
	typ := int64(r.intn(NumTypes))
	region := int64(r.intn(NumRegions))
	return db.PlanSpec{Name: "Q8", Ops: []db.OpSpec{
		db.Scan("part", "p_type", "cp", db.PredIEq(typ)),
		db.Project("cp", "part", "p_partkey", "pkeys"),
		db.Build("pkeys", "", "pset"),
		db.Scan("supplier", "s_nationkey", "cs", nationsOf(region)),
		db.Project("cs", "supplier", "s_suppkey", "skeys"),
		db.Build("skeys", "", "sset"),
		db.Scan("orders", "o_orderdate", "co",
			db.PredIRange(EncodeDate(1995, 1, 1), EncodeDate(1997, 1, 1))),
		db.Project("co", "orders", "o_orderkey", "okeys"),
		db.Build("okeys", "", "oset"),
		db.ScanAll("lineitem", "l_partkey", "cl"),
		db.ProbeSemi("cl", "lineitem", "l_partkey", "pset", "cl2"),
		db.ProbeSemi("cl2", "lineitem", "l_suppkey", "sset", "cl3"),
		db.ProbeSemi("cl3", "lineitem", "l_orderkey", "oset", "cl4"),
		db.Project("cl4", "lineitem", "l_extendedprice", "price"),
		db.Project("cl4", "lineitem", "l_discount", "disc"),
		db.Map2("price", "disc", "rev", db.MapMulComplement),
		db.Project("cl4", "lineitem", "l_shipyear", "yr"),
		db.GroupSum("yr", "rev", "p8"),
		db.GroupMerge("p8", "gk", "gs"),
	}}
}

// q9 is product type profit: parts of one brand family joined into
// lineitem, supplier nation fetched as the group key — a fetch join plus
// grouped aggregation (the other join-heavy query the paper highlights).
func q9(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 9)
	brand := int64(r.intn(NumBrands))
	return db.PlanSpec{Name: "Q9", Ops: []db.OpSpec{
		db.Scan("part", "p_brand", "cp", db.PredIEq(brand)),
		db.Project("cp", "part", "p_partkey", "pkeys"),
		db.Build("pkeys", "", "pset"),
		db.ScanAll("supplier", "s_suppkey", "cs"),
		db.Project("cs", "supplier", "s_suppkey", "allsk"),
		db.Project("cs", "supplier", "s_nationkey", "allsn"),
		db.Build("allsk", "allsn", "s2n"),
		db.ScanAll("lineitem", "l_partkey", "cl"),
		db.ProbeSemi("cl", "lineitem", "l_partkey", "pset", "cl2"),
		db.ProbeFetch("cl2", "lineitem", "l_suppkey", "s2n", "cl3", "nat"),
		db.Project("cl3", "lineitem", "l_extendedprice", "price"),
		db.Project("cl3", "lineitem", "l_discount", "disc"),
		db.Map2("price", "disc", "profit", db.MapMulComplement),
		db.GroupSum("nat", "profit", "p9"),
		db.GroupMerge("p9", "gk", "gs"),
	}}
}

// q10 is returned item reporting: returned lineitems within an order
// window, revenue grouped by customer, top 20.
func q10(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 10)
	y := pYear(r)
	m := int64(1 + 3*r.intn(4))
	return db.PlanSpec{Name: "Q10", Ops: []db.OpSpec{
		db.Scan("orders", "o_orderdate", "co",
			db.PredIRange(y*10000+m*100, y*10000+(m+3)*100)),
		db.Project("co", "orders", "o_orderkey", "okeys"),
		db.Project("co", "orders", "o_custkey", "ocust"),
		db.Build("okeys", "ocust", "o2c"),
		db.Scan("lineitem", "l_returnflag", "cl", db.PredIEq(0)), // 0 encodes 'A'
		db.ProbeFetch("cl", "lineitem", "l_orderkey", "o2c", "cl2", "cust"),
		db.Project("cl2", "lineitem", "l_extendedprice", "price"),
		db.Project("cl2", "lineitem", "l_discount", "disc"),
		db.Map2("price", "disc", "rev", db.MapMulComplement),
		db.GroupSum("cust", "rev", "p10"),
		db.GroupMerge("p10", "gk", "gs"),
		db.TopN("gk", "gs", 20),
	}}
}

// q11 is important stock identification: partsupp value of one
// nation's suppliers grouped by part, top 50.
func q11(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 11)
	nation := int64(r.intn(NumNations))
	return db.PlanSpec{Name: "Q11", Ops: []db.OpSpec{
		db.Scan("supplier", "s_nationkey", "cs", db.PredIEq(nation)),
		db.Project("cs", "supplier", "s_suppkey", "skeys"),
		db.Build("skeys", "", "sset"),
		db.ScanAll("partsupp", "ps_suppkey", "cps"),
		db.ProbeSemi("cps", "partsupp", "ps_suppkey", "sset", "c2"),
		db.Project("c2", "partsupp", "ps_supplycost", "cost"),
		db.Project("c2", "partsupp", "ps_availqty", "avail"),
		db.Map2("cost", "avail", "value", db.MapMul),
		db.Project("c2", "partsupp", "ps_partkey", "pk"),
		db.GroupSum("pk", "value", "p11"),
		db.GroupMerge("p11", "gk", "gs"),
		db.TopN("gk", "gs", 50),
	}}
}
