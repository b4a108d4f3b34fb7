package tpch

import "elasticore/internal/db"

// queries2.go: TPC-H queries 12..22 (see queries.go for conventions).

// q12 is the shipping-modes query: late lineitems of two ship modes
// received in one year, counted per mode.
func q12(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 12)
	y := pYear(r)
	m1 := int64(r.intn(NumShipModes))
	m2 := (m1 + 1) % NumShipModes
	return db.PlanSpec{Name: "Q12", Ops: []db.OpSpec{
		db.Scan("lineitem", "l_shipmode", "cl", db.PredIIn(m1, m2)),
		db.Refine("cl", "lineitem", "l_receiptdate", "cl2",
			db.PredIRange(y*10000, (y+1)*10000)),
		db.Refine("cl2", "lineitem", "l_late", "cl3", db.PredIEq(1)),
		db.Project("cl3", "lineitem", "l_shipmode", "mk"),
		db.GroupSum("mk", "", "p12"),
		db.GroupMerge("p12", "gk", "gs"),
	}}
}

// q13 is customer distribution: customers without any order, counted
// per nation (an anti-join).
func q13(seed uint64) db.PlanSpec {
	return db.PlanSpec{Name: "Q13", Ops: []db.OpSpec{
		db.ScanAll("orders", "o_custkey", "co"),
		db.Project("co", "orders", "o_custkey", "ock"),
		db.Build("ock", "", "hasorders"),
		db.ScanAll("customer", "c_custkey", "cc"),
		db.ProbeAnti("cc", "customer", "c_custkey", "hasorders", "cc2"),
		db.Project("cc2", "customer", "c_nationkey", "nk"),
		db.GroupSum("nk", "", "p13"),
		db.GroupMerge("p13", "gk", "gs"),
	}}
}

// q14 is promotion effect: revenue of promo parts over one month,
// with the total revenue in scalar "total" and promo revenue in "result".
func q14(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 14)
	y := pYear(r)
	m := int64(1 + r.intn(12))
	return db.PlanSpec{Name: "Q14", Ops: []db.OpSpec{
		db.Scan("part", "p_type", "cp", intBelow(25)), // PROMO% family
		db.Project("cp", "part", "p_partkey", "pkeys"),
		db.Build("pkeys", "", "promoset"),
		db.Scan("lineitem", "l_shipdate", "cl",
			db.PredIRange(y*10000+m*100, y*10000+(m+1)*100)),
		db.Project("cl", "lineitem", "l_extendedprice", "priceAll"),
		db.Project("cl", "lineitem", "l_discount", "discAll"),
		db.Map2("priceAll", "discAll", "revAll", db.MapMulComplement),
		db.Sum("revAll", "total"),
		db.ProbeSemi("cl", "lineitem", "l_partkey", "promoset", "cl2"),
		db.Project("cl2", "lineitem", "l_extendedprice", "price"),
		db.Project("cl2", "lineitem", "l_discount", "disc"),
		db.Map2("price", "disc", "rev", db.MapMulComplement),
		db.Sum("rev", "result"),
	}}
}

// q15 is top supplier: one quarter's revenue grouped by supplier,
// keeping the best one.
func q15(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 15)
	y := pYear(r)
	m := int64(1 + 3*r.intn(4))
	return db.PlanSpec{Name: "Q15", Ops: []db.OpSpec{
		db.Scan("lineitem", "l_shipdate", "cl",
			db.PredIRange(y*10000+m*100, y*10000+(m+3)*100)),
		db.Project("cl", "lineitem", "l_extendedprice", "price"),
		db.Project("cl", "lineitem", "l_discount", "disc"),
		db.Map2("price", "disc", "rev", db.MapMulComplement),
		db.Project("cl", "lineitem", "l_suppkey", "sk"),
		db.GroupSum("sk", "rev", "p15"),
		db.GroupMerge("p15", "gk", "gs"),
		db.TopN("gk", "gs", 1),
	}}
}

// q16 is the parts/supplier relationship: parts outside one brand in
// a size list, their suppliers counted, excluding suppliers with customer
// complaints (negative balance).
func q16(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 16)
	brand := int64(r.intn(NumBrands))
	s1 := int64(1 + r.intn(45))
	return db.PlanSpec{Name: "Q16", Ops: []db.OpSpec{
		db.Scan("part", "p_brand", "cp", db.PredINe(brand)),
		db.Refine("cp", "part", "p_size", "cp2",
			db.PredIIn(s1, s1+1, s1+2, s1+3, s1+4)),
		db.Project("cp2", "part", "p_partkey", "pkeys"),
		db.Build("pkeys", "", "pset"),
		db.Scan("supplier", "s_acctbal", "csupp", db.PredFLess(0)),
		db.Project("csupp", "supplier", "s_suppkey", "badkeys"),
		db.Build("badkeys", "", "badset"),
		db.ScanAll("partsupp", "ps_partkey", "cps"),
		db.ProbeSemi("cps", "partsupp", "ps_partkey", "pset", "c2"),
		db.ProbeAnti("c2", "partsupp", "ps_suppkey", "badset", "c3"),
		db.Project("c3", "partsupp", "ps_suppkey", "sk"),
		db.GroupSum("sk", "", "p16"),
		db.GroupMerge("p16", "gk", "gs"),
		db.TopN("gk", "gs", 100),
	}}
}

// q17 is small-quantity-order revenue: lineitems of one brand and
// container below a quantity threshold, summed.
func q17(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 17)
	brand := int64(r.intn(NumBrands))
	container := int64(r.intn(NumContainers))
	return db.PlanSpec{Name: "Q17", Ops: []db.OpSpec{
		db.Scan("part", "p_brand", "cp", db.PredIEq(brand)),
		db.Refine("cp", "part", "p_container", "cp2", db.PredIEq(container)),
		db.Project("cp2", "part", "p_partkey", "pkeys"),
		db.Build("pkeys", "", "pset"),
		db.ScanAll("lineitem", "l_partkey", "cl"),
		db.ProbeSemi("cl", "lineitem", "l_partkey", "pset", "cl2"),
		db.Refine("cl2", "lineitem", "l_quantity", "cl3", db.PredFLess(10)),
		db.Project("cl3", "lineitem", "l_extendedprice", "price"),
		db.Sum("price", "result"),
	}}
}

// q18 is large-volume customers: orders whose lineitem quantity sum
// exceeds a threshold (a grouped HAVING), top 100 by quantity.
func q18(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 18)
	threshold := float64(120 + r.intn(60))
	return db.PlanSpec{Name: "Q18", Ops: []db.OpSpec{
		db.ScanAll("lineitem", "l_orderkey", "cl"),
		db.Project("cl", "lineitem", "l_orderkey", "lok"),
		db.Project("cl", "lineitem", "l_quantity", "qty"),
		db.GroupSum("lok", "qty", "p18"),
		db.GroupMerge("p18", "gk", "gs"),
		db.GroupFilter("gk", "gs", threshold),
		db.TopN("gk", "gs", 100),
	}}
}

// q19 is discounted revenue: the IN-predicate query the paper calls
// out ("a series of constant values shared in a list") — ship modes and
// instructions, brand and container lists, a quantity window, summed.
func q19(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 19)
	b1 := int64(r.intn(NumBrands))
	c1 := int64(r.intn(NumContainers - 4))
	qlo := float64(1 + r.intn(10))
	return db.PlanSpec{Name: "Q19", Ops: []db.OpSpec{
		db.Scan("part", "p_brand", "cp", db.PredIIn(b1, (b1+5)%NumBrands, (b1+10)%NumBrands)),
		db.Refine("cp", "part", "p_container", "cp2", db.PredIIn(c1, c1+1, c1+2, c1+3)),
		db.Project("cp2", "part", "p_partkey", "pkeys"),
		db.Build("pkeys", "", "pset"),
		db.Scan("lineitem", "l_shipmode", "cl", db.PredIIn(0, 1)), // AIR, AIR REG
		db.Refine("cl", "lineitem", "l_shipinstruct", "cl2", db.PredIEq(0)),
		db.ProbeSemi("cl2", "lineitem", "l_partkey", "pset", "cl3"),
		db.Refine("cl3", "lineitem", "l_quantity", "cl4", db.PredFRange(qlo, qlo+30)),
		db.Project("cl4", "lineitem", "l_extendedprice", "price"),
		db.Project("cl4", "lineitem", "l_discount", "disc"),
		db.Map2("price", "disc", "rev", db.MapMulComplement),
		db.Sum("rev", "result"),
	}}
}

// q20 is potential part promotion: suppliers with surplus stock of
// one part family in one nation, counted.
func q20(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 20)
	nation := int64(r.intn(NumNations))
	typ := int64(r.intn(NumTypes / 2))
	return db.PlanSpec{Name: "Q20", Ops: []db.OpSpec{
		db.Scan("part", "p_type", "cp", db.PredIRange(typ, typ+15)),
		db.Project("cp", "part", "p_partkey", "pkeys"),
		db.Build("pkeys", "", "pset"),
		db.ScanAll("partsupp", "ps_partkey", "cps"),
		db.ProbeSemi("cps", "partsupp", "ps_partkey", "pset", "c2"),
		db.Refine("c2", "partsupp", "ps_availqty", "c3", floatAbove(5000)),
		db.Project("c3", "partsupp", "ps_suppkey", "surplus"),
		db.Build("surplus", "", "surplusset"),
		db.Scan("supplier", "s_nationkey", "cs", db.PredIEq(nation)),
		db.ProbeSemi("cs", "supplier", "s_suppkey", "surplusset", "cs2"),
		db.Count("cs2", "result"),
	}}
}

// q21 is suppliers who kept orders waiting: late lineitems of one
// nation's suppliers on finalized orders, counted per supplier, top 100.
func q21(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 21)
	nation := int64(r.intn(NumNations))
	return db.PlanSpec{Name: "Q21", Ops: []db.OpSpec{
		db.Scan("supplier", "s_nationkey", "cs", db.PredIEq(nation)),
		db.Project("cs", "supplier", "s_suppkey", "skeys"),
		db.Build("skeys", "", "sset"),
		db.Scan("orders", "o_orderstatus", "co", db.PredIEq(1)), // 'F'
		db.Project("co", "orders", "o_orderkey", "okeys"),
		db.Build("okeys", "", "oset"),
		db.Scan("lineitem", "l_late", "cl", db.PredIEq(1)),
		db.ProbeSemi("cl", "lineitem", "l_suppkey", "sset", "cl2"),
		db.ProbeSemi("cl2", "lineitem", "l_orderkey", "oset", "cl3"),
		db.Project("cl3", "lineitem", "l_suppkey", "sk"),
		db.GroupSum("sk", "", "p21"),
		db.GroupMerge("p21", "gk", "gs"),
		db.TopN("gk", "gs", 100),
	}}
}

// q22 is the global sales opportunity query: customers from an IN
// list of country codes with no orders, their balances summed per nation
// (the other IN-predicate query the paper highlights).
func q22(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 22)
	n1 := int64(r.intn(NumNations - 7))
	return db.PlanSpec{Name: "Q22", Ops: []db.OpSpec{
		db.Scan("customer", "c_nationkey", "cc",
			db.PredIIn(n1, n1+1, n1+2, n1+3, n1+4, n1+5, n1+6)),
		db.ScanAll("orders", "o_custkey", "co"),
		db.Project("co", "orders", "o_custkey", "ock"),
		db.Build("ock", "", "hasorders"),
		db.ProbeAnti("cc", "customer", "c_custkey", "hasorders", "cc2"),
		db.Project("cc2", "customer", "c_acctbal", "bal"),
		db.Project("cc2", "customer", "c_nationkey", "nk"),
		db.GroupSum("nk", "bal", "p22"),
		db.GroupMerge("p22", "gk", "gs"),
	}}
}
