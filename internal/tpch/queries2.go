package tpch

import "elasticore/internal/db"

// queries2.go: TPC-H queries 12..22 (see queries.go for conventions).

// BuildQ12 is the shipping-modes query: late lineitems of two ship modes
// received in one year, counted per mode.
func BuildQ12(seed uint64) *db.Plan {
	r := newRNG(seed ^ 12)
	y := pYear(r)
	m1 := int64(r.intn(NumShipModes))
	m2 := (m1 + 1) % NumShipModes
	return &db.Plan{Name: "Q12", Stages: []db.StageFn{
		db.ThetaSelect("lineitem", "l_shipmode", "cl", db.PredIIn(m1, m2)),
		db.SubSelect("cl", "lineitem", "l_receiptdate", "cl2",
			db.PredIRange(y*10000, (y+1)*10000)),
		db.SubSelect("cl2", "lineitem", "l_late", "cl3", db.PredIEq(1)),
		db.Projection("cl3", "lineitem", "l_shipmode", "mk"),
		db.GroupSum("mk", "", "p12"),
		db.GroupMerge("p12", "gk", "gs"),
	}}
}

// BuildQ13 is customer distribution: customers without any order, counted
// per nation (an anti-join).
func BuildQ13(seed uint64) *db.Plan {
	return &db.Plan{Name: "Q13", Stages: []db.StageFn{
		db.ScanAll("orders", "o_custkey", "co"),
		db.Projection("co", "orders", "o_custkey", "ock"),
		db.BuildMap("ock", "", "hasorders"),
		db.ScanAll("customer", "c_custkey", "cc"),
		db.ProbeAnti("cc", "customer", "c_custkey", "hasorders", "cc2"),
		db.Projection("cc2", "customer", "c_nationkey", "nk"),
		db.GroupSum("nk", "", "p13"),
		db.GroupMerge("p13", "gk", "gs"),
	}}
}

// BuildQ14 is promotion effect: revenue of promo parts over one month,
// with the total revenue in scalar "total" and promo revenue in "result".
func BuildQ14(seed uint64) *db.Plan {
	r := newRNG(seed ^ 14)
	y := pYear(r)
	m := int64(1 + r.intn(12))
	return &db.Plan{Name: "Q14", Stages: []db.StageFn{
		db.ThetaSelect("part", "p_type", "cp", intBelow(25)), // PROMO% family
		db.Projection("cp", "part", "p_partkey", "pkeys"),
		db.BuildMap("pkeys", "", "promoset"),
		db.ThetaSelect("lineitem", "l_shipdate", "cl",
			db.PredIRange(y*10000+m*100, y*10000+(m+1)*100)),
		db.Projection("cl", "lineitem", "l_extendedprice", "priceAll"),
		db.Projection("cl", "lineitem", "l_discount", "discAll"),
		db.MapF2("priceAll", "discAll", "revAll", func(p, d float64) float64 { return p * (1 - d) }),
		db.SumF("revAll", "total"),
		db.ProbeSemi("cl", "lineitem", "l_partkey", "promoset", "cl2"),
		db.Projection("cl2", "lineitem", "l_extendedprice", "price"),
		db.Projection("cl2", "lineitem", "l_discount", "disc"),
		db.MapF2("price", "disc", "rev", func(p, d float64) float64 { return p * (1 - d) }),
		db.SumF("rev", "result"),
	}}
}

// BuildQ15 is top supplier: one quarter's revenue grouped by supplier,
// keeping the best one.
func BuildQ15(seed uint64) *db.Plan {
	r := newRNG(seed ^ 15)
	y := pYear(r)
	m := int64(1 + 3*r.intn(4))
	return &db.Plan{Name: "Q15", Stages: []db.StageFn{
		db.ThetaSelect("lineitem", "l_shipdate", "cl",
			db.PredIRange(y*10000+m*100, y*10000+(m+3)*100)),
		db.Projection("cl", "lineitem", "l_extendedprice", "price"),
		db.Projection("cl", "lineitem", "l_discount", "disc"),
		db.MapF2("price", "disc", "rev", func(p, d float64) float64 { return p * (1 - d) }),
		db.Projection("cl", "lineitem", "l_suppkey", "sk"),
		db.GroupSum("sk", "rev", "p15"),
		db.GroupMerge("p15", "gk", "gs"),
		db.TopN("gk", "gs", 1),
	}}
}

// BuildQ16 is the parts/supplier relationship: parts outside one brand in
// a size list, their suppliers counted, excluding suppliers with customer
// complaints (negative balance).
func BuildQ16(seed uint64) *db.Plan {
	r := newRNG(seed ^ 16)
	brand := int64(r.intn(NumBrands))
	s1 := int64(1 + r.intn(45))
	return &db.Plan{Name: "Q16", Stages: []db.StageFn{
		db.ThetaSelect("part", "p_brand", "cp",
			db.Pred{I: func(v int64) bool { return v != brand }}),
		db.SubSelect("cp", "part", "p_size", "cp2",
			db.PredIIn(s1, s1+1, s1+2, s1+3, s1+4)),
		db.Projection("cp2", "part", "p_partkey", "pkeys"),
		db.BuildMap("pkeys", "", "pset"),
		db.ThetaSelect("supplier", "s_acctbal", "csupp", db.PredFLess(0)),
		db.Projection("csupp", "supplier", "s_suppkey", "badkeys"),
		db.BuildMap("badkeys", "", "badset"),
		db.ScanAll("partsupp", "ps_partkey", "cps"),
		db.ProbeSemi("cps", "partsupp", "ps_partkey", "pset", "c2"),
		db.ProbeAnti("c2", "partsupp", "ps_suppkey", "badset", "c3"),
		db.Projection("c3", "partsupp", "ps_suppkey", "sk"),
		db.GroupSum("sk", "", "p16"),
		db.GroupMerge("p16", "gk", "gs"),
		db.TopN("gk", "gs", 100),
	}}
}

// BuildQ17 is small-quantity-order revenue: lineitems of one brand and
// container below a quantity threshold, summed.
func BuildQ17(seed uint64) *db.Plan {
	r := newRNG(seed ^ 17)
	brand := int64(r.intn(NumBrands))
	container := int64(r.intn(NumContainers))
	return &db.Plan{Name: "Q17", Stages: []db.StageFn{
		db.ThetaSelect("part", "p_brand", "cp", db.PredIEq(brand)),
		db.SubSelect("cp", "part", "p_container", "cp2", db.PredIEq(container)),
		db.Projection("cp2", "part", "p_partkey", "pkeys"),
		db.BuildMap("pkeys", "", "pset"),
		db.ScanAll("lineitem", "l_partkey", "cl"),
		db.ProbeSemi("cl", "lineitem", "l_partkey", "pset", "cl2"),
		db.SubSelect("cl2", "lineitem", "l_quantity", "cl3", db.PredFLess(10)),
		db.Projection("cl3", "lineitem", "l_extendedprice", "price"),
		db.SumF("price", "result"),
	}}
}

// BuildQ18 is large-volume customers: orders whose lineitem quantity sum
// exceeds a threshold (a grouped HAVING), top 100 by quantity.
func BuildQ18(seed uint64) *db.Plan {
	r := newRNG(seed ^ 18)
	threshold := float64(120 + r.intn(60))
	return &db.Plan{Name: "Q18", Stages: []db.StageFn{
		db.ScanAll("lineitem", "l_orderkey", "cl"),
		db.Projection("cl", "lineitem", "l_orderkey", "lok"),
		db.Projection("cl", "lineitem", "l_quantity", "qty"),
		db.GroupSum("lok", "qty", "p18"),
		db.GroupMerge("p18", "gk", "gs"),
		db.GroupFilter("gk", "gs", func(sum float64) bool { return sum > threshold }),
		db.TopN("gk", "gs", 100),
	}}
}

// BuildQ19 is discounted revenue: the IN-predicate query the paper calls
// out ("a series of constant values shared in a list") — ship modes and
// instructions, brand and container lists, a quantity window, summed.
func BuildQ19(seed uint64) *db.Plan {
	r := newRNG(seed ^ 19)
	b1 := int64(r.intn(NumBrands))
	c1 := int64(r.intn(NumContainers - 4))
	qlo := float64(1 + r.intn(10))
	return &db.Plan{Name: "Q19", Stages: []db.StageFn{
		db.ThetaSelect("part", "p_brand", "cp", db.PredIIn(b1, (b1+5)%NumBrands, (b1+10)%NumBrands)),
		db.SubSelect("cp", "part", "p_container", "cp2", db.PredIIn(c1, c1+1, c1+2, c1+3)),
		db.Projection("cp2", "part", "p_partkey", "pkeys"),
		db.BuildMap("pkeys", "", "pset"),
		db.ThetaSelect("lineitem", "l_shipmode", "cl", db.PredIIn(0, 1)), // AIR, AIR REG
		db.SubSelect("cl", "lineitem", "l_shipinstruct", "cl2", db.PredIEq(0)),
		db.ProbeSemi("cl2", "lineitem", "l_partkey", "pset", "cl3"),
		db.SubSelect("cl3", "lineitem", "l_quantity", "cl4", db.PredFRange(qlo, qlo+30)),
		db.Projection("cl4", "lineitem", "l_extendedprice", "price"),
		db.Projection("cl4", "lineitem", "l_discount", "disc"),
		db.MapF2("price", "disc", "rev", func(p, d float64) float64 { return p * (1 - d) }),
		db.SumF("rev", "result"),
	}}
}

// BuildQ20 is potential part promotion: suppliers with surplus stock of
// one part family in one nation, counted.
func BuildQ20(seed uint64) *db.Plan {
	r := newRNG(seed ^ 20)
	nation := int64(r.intn(NumNations))
	typ := int64(r.intn(NumTypes / 2))
	return &db.Plan{Name: "Q20", Stages: []db.StageFn{
		db.ThetaSelect("part", "p_type", "cp", db.PredIRange(typ, typ+15)),
		db.Projection("cp", "part", "p_partkey", "pkeys"),
		db.BuildMap("pkeys", "", "pset"),
		db.ScanAll("partsupp", "ps_partkey", "cps"),
		db.ProbeSemi("cps", "partsupp", "ps_partkey", "pset", "c2"),
		db.SubSelect("c2", "partsupp", "ps_availqty", "c3",
			db.Pred{F: func(v float64) bool { return v > 5000 }}),
		db.Projection("c3", "partsupp", "ps_suppkey", "surplus"),
		db.BuildMap("surplus", "", "surplusset"),
		db.ThetaSelect("supplier", "s_nationkey", "cs", db.PredIEq(nation)),
		db.ProbeSemi("cs", "supplier", "s_suppkey", "surplusset", "cs2"),
		db.Count("cs2", "result"),
	}}
}

// BuildQ21 is suppliers who kept orders waiting: late lineitems of one
// nation's suppliers on finalized orders, counted per supplier, top 100.
func BuildQ21(seed uint64) *db.Plan {
	r := newRNG(seed ^ 21)
	nation := int64(r.intn(NumNations))
	return &db.Plan{Name: "Q21", Stages: []db.StageFn{
		db.ThetaSelect("supplier", "s_nationkey", "cs", db.PredIEq(nation)),
		db.Projection("cs", "supplier", "s_suppkey", "skeys"),
		db.BuildMap("skeys", "", "sset"),
		db.ThetaSelect("orders", "o_orderstatus", "co", db.PredIEq(1)), // 'F'
		db.Projection("co", "orders", "o_orderkey", "okeys"),
		db.BuildMap("okeys", "", "oset"),
		db.ThetaSelect("lineitem", "l_late", "cl", db.PredIEq(1)),
		db.ProbeSemi("cl", "lineitem", "l_suppkey", "sset", "cl2"),
		db.ProbeSemi("cl2", "lineitem", "l_orderkey", "oset", "cl3"),
		db.Projection("cl3", "lineitem", "l_suppkey", "sk"),
		db.GroupSum("sk", "", "p21"),
		db.GroupMerge("p21", "gk", "gs"),
		db.TopN("gk", "gs", 100),
	}}
}

// BuildQ22 is the global sales opportunity query: customers from an IN
// list of country codes with no orders, their balances summed per nation
// (the other IN-predicate query the paper highlights).
func BuildQ22(seed uint64) *db.Plan {
	r := newRNG(seed ^ 22)
	n1 := int64(r.intn(NumNations - 7))
	return &db.Plan{Name: "Q22", Stages: []db.StageFn{
		db.ThetaSelect("customer", "c_nationkey", "cc",
			db.PredIIn(n1, n1+1, n1+2, n1+3, n1+4, n1+5, n1+6)),
		db.ScanAll("orders", "o_custkey", "co"),
		db.Projection("co", "orders", "o_custkey", "ock"),
		db.BuildMap("ock", "", "hasorders"),
		db.ProbeAnti("cc", "customer", "c_custkey", "hasorders", "cc2"),
		db.Projection("cc2", "customer", "c_acctbal", "bal"),
		db.Projection("cc2", "customer", "c_nationkey", "nk"),
		db.GroupSum("nk", "bal", "p22"),
		db.GroupMerge("p22", "gk", "gs"),
	}}
}
