package tpch

import (
	"elasticore/internal/db"
	"elasticore/internal/hashmix"
)

// htap.go builds the heterogeneous query mixes of the htap experiments:
// OLTP-style point lookups against the orders table interleaved with
// scan- and join-heavy analytic pipelines — the TPC-H plans of queries.go
// and seed-derived ad-hoc ones, all PlanSpec values. The mix is
// seed-deterministic per (client, stream position), so two runs of the
// same configuration submit byte-identical query streams.

// pointLookup is the OLTP side of the HTAP mix: a single-row read of one
// order's total price by primary key. o_orderkey is generated 0..rows-1
// ascending, so the lookup binary-searches it; the key is seed-derived and
// always present. The scalar "result" receives the price and
// "result.found" the hit count (1).
func pointLookup(seed uint64, orderRows int) db.PlanSpec {
	key := int64(hashmix.Mix64(seed^0xB10C) % uint64(max(orderRows, 1)))
	return db.PlanSpec{Name: "PointLookup", Ops: []db.OpSpec{
		db.Lookup("orders", "o_orderkey", "o_totalprice", key, "result"),
	}}
}

// BuildPointLookup lowers pointLookup unchecked, as Build does a query
// (TestQuerySpecsCompile compiles it too).
func BuildPointLookup(seed uint64, orderRows int) *db.Plan {
	return pointLookup(seed, orderRows).Lower()
}

// AdHocShapes is the number of distinct ad-hoc analytic pipeline shapes.
const AdHocShapes = 3

// AdHocSpec returns a seed-derived declarative filter/join/aggregate
// pipeline — the "ad-hoc analytics" third of the HTAP mix. Three shapes
// rotate by seed: a filter+aggregate over lineitem, a semi-join from
// filtered orders into lineitem grouped by supplier, and an anti-join
// from one part size class counted over lineitem. Every shape compiles
// against any store loaded by Load (asserted by tests), so callers may
// treat Compile errors as bugs.
func AdHocSpec(seed uint64) db.PlanSpec {
	r := newRNG(seed ^ 0xAD0C)
	switch r.intn(AdHocShapes) {
	case 0:
		// Filter + aggregate: discounted revenue of one quantity band in
		// one ship year.
		lo := float64(r.intn(40))
		y := pYear(r)
		return db.PlanSpec{Name: "AdHoc-filter", Ops: []db.OpSpec{
			db.Scan("lineitem", "l_quantity", "c1", db.PredFRange(lo, lo+10)),
			db.Refine("c1", "lineitem", "l_shipdate", "c2", db.PredIRange(y*10000, (y+1)*10000)),
			db.Project("c2", "lineitem", "l_extendedprice", "price"),
			db.Project("c2", "lineitem", "l_discount", "disc"),
			db.Map2("price", "disc", "rev", db.MapMul),
			db.Sum("rev", "result"),
		}}
	case 1:
		// Semi-join + group: revenue of one order-priority class, grouped
		// by supplier, top 10.
		prio := int64(r.intn(NumOrderPriorities))
		return db.PlanSpec{Name: "AdHoc-join", Ops: []db.OpSpec{
			db.Scan("orders", "o_orderpriority", "co", db.PredIEq(prio)),
			db.Project("co", "orders", "o_orderkey", "okeys"),
			db.Build("okeys", "", "oset"),
			db.ScanAll("lineitem", "l_orderkey", "cl"),
			db.ProbeSemi("cl", "lineitem", "l_orderkey", "oset", "cl2"),
			db.Project("cl2", "lineitem", "l_extendedprice", "price"),
			db.Project("cl2", "lineitem", "l_suppkey", "sk"),
			db.GroupSum("sk", "price", "p1"),
			db.GroupMerge("p1", "gk", "gs"),
			db.TopN("gk", "gs", 10),
		}}
	default:
		// Anti-join + count: lineitems whose part is not in one size class.
		size := int64(1 + r.intn(50))
		return db.PlanSpec{Name: "AdHoc-anti", Ops: []db.OpSpec{
			db.Scan("part", "p_size", "cp", db.PredIEq(size)),
			db.Project("cp", "part", "p_partkey", "pkeys"),
			db.Build("pkeys", "", "pset"),
			db.ScanAll("lineitem", "l_partkey", "cl"),
			db.ProbeAnti("cl", "lineitem", "l_partkey", "pset", "c2"),
			db.Count("c2", "result"),
		}}
	}
}

// HTAPMixer generates one tenant's heterogeneous query stream: each
// (client, k) slot is hashed to a point lookup with probability
// LookupRatio, otherwise to an analytic query alternating between the
// TPC-H plans (lowered unchecked) and ad-hoc pipelines compiled against
// Store. Its Plan method is a workload.PlanFor.
type HTAPMixer struct {
	// Store compiles the declarative ad-hoc pipelines; it must hold the
	// TPC-H tables.
	Store *db.Store
	// OrderRows bounds the point-lookup key space (Dataset.Sizes.Orders).
	OrderRows int
	// Seed varies the stream; the same seed reproduces it exactly.
	Seed uint64
	// LookupRatio is the point-lookup fraction in [0, 1].
	LookupRatio float64
}

// scanHeavy rotates the TPC-H plans of the mix: the Q6
// selectivity scan, the Q1 grouped scan and the Q3 join chain.
var scanHeavy = []int{6, 1, 3}

// slotHash mixes the stream coordinates into one deterministic word.
func (m HTAPMixer) slotHash(client, k int) uint64 {
	return hashmix.Mix64(m.Seed ^ hashmix.Mix64(uint64(client)*2654435761+uint64(k)+1))
}

// IsLookup reports whether stream slot (client, k) is a point lookup —
// exposed so drivers can attribute finished queries to a class without
// rebuilding the plan.
func (m HTAPMixer) IsLookup(client, k int) bool {
	h := m.slotHash(client, k)
	return float64(h>>11)/float64(1<<53) < m.LookupRatio
}

// Plan supplies the k-th query of client c (a workload.PlanFor).
func (m HTAPMixer) Plan(client, k int) *db.Plan {
	h := m.slotHash(client, k)
	if m.IsLookup(client, k) {
		return BuildPointLookup(h, m.OrderRows)
	}
	// Alternate TPC-H and ad-hoc analytics by hash bit.
	if h&(1<<60) == 0 {
		return Build(scanHeavy[int(h>>32)%len(scanHeavy)], h)
	}
	plan, err := AdHocSpec(h).Compile(m.Store)
	if err != nil {
		// Unreachable for stores loaded by Load (tested); keep the stream
		// alive rather than ending it on a nil plan.
		return BuildQ6(h)
	}
	return plan
}
