package experiments

import (
	"context"
	"fmt"

	"elasticore/internal/db"
	"elasticore/internal/tenant"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

// htap.go sweeps a heterogeneous HTAP mix across the point-lookup:scan
// ratio: every tenant of a consolidated rig submits a seed-deterministic
// blend of single-row order lookups (OLTP) and scan/join/aggregate
// pipelines (OLAP, hand-written TPC-H plans alternating with compiled
// declarative ad-hoc shapes — see tpch.HTAPMixer). Per-query completion
// hooks split throughput and latency by class, exposing how the short
// transactional tail behaves as analytic pressure grows.

// htapQueriesPerClient is each client stream's length per sweep point —
// long enough that both classes appear at middling ratios, short enough
// that a full sweep stays in the golden-test time budget.
const htapQueriesPerClient = 4

// htapClass accumulates one query class's completions within a tenant.
type htapClass struct {
	n          int
	latencySum float64 // seconds
}

func (c htapClass) meanMS() float64 {
	if c.n == 0 {
		return 0
	}
	return c.latencySum / float64(c.n) * 1e3
}

// runHTAPMix executes the sweep: one consolidated multi-tenant rig per
// ratio, every tenant running the mixed stream against its own dataset.
func runHTAPMix(ctx context.Context, c Config, obs Observer) (*Result, error) {
	res := &Result{}
	tb := res.AddTable("mix",
		colF("ratio", 2), colS("tenant"), colI("lookups"), colI("scans"),
		colF("q/s", 3), colF("lookup-ms", 3), colF("scan-ms", 3),
		colF("mean-cores", 2))

	machineCores := 0
	ratioPhase := func(ratio float64) string { return fmt.Sprintf("ratio %.2f", ratio) }
	err := sweep(ctx, obs, c.LookupRatios, ratioPhase, func(_ int, ratio float64) error {
		specs := make([]workload.TenantSpec, c.Tenants)
		for i := range specs {
			specs[i] = workload.TenantSpec{
				Name:      fmt.Sprintf("tenant%d", i),
				SF:        c.SF,
				Seed:      c.Seed + uint64(i),
				Mode:      workload.ModeDense,
				SLA:       tenant.SLA{Weight: 1, MinCores: 1},
				Placement: c.Placement,
			}
		}
		lookups := make([]htapClass, c.Tenants)
		scans := make([]htapClass, c.Tenants)
		aggregateSF := float64(c.Tenants) * c.SF
		topo, err := c.machineTopology(aggregateSF)
		if err != nil {
			return err
		}
		rig, err := workload.NewMultiRig(workload.MultiOptions{
			Tenants:  specs,
			Topology: topo,
			Bus:      c.Bus,
		})
		if err != nil {
			return err
		}
		loads := make([]workload.TenantLoad, c.Tenants)
		for i, tr := range rig.Tenants {
			mixer := tpch.HTAPMixer{
				Store:       tr.Store,
				OrderRows:   tr.Dataset.Sizes.Orders,
				Seed:        c.Seed*131 + uint64(i),
				LookupRatio: ratio,
			}
			cyclesToSeconds := rig.Machine.Topology().CyclesToSeconds
			loads[i] = workload.TenantLoad{
				Clients:          c.Clients,
				QueriesPerClient: htapQueriesPerClient,
				Plan:             mixer.Plan,
				OnDone: func(client, k int, q *db.Query) {
					cls := &scans[i]
					if mixer.IsLookup(client, k) {
						cls = &lookups[i]
					}
					cls.n++
					cls.latencySum += cyclesToSeconds(q.ElapsedCycles())
				},
			}
		}
		phaseRes, err := rig.Run(loads, 0, 0)
		if err != nil {
			return err
		}
		machineCores = phaseRes.MachineCores
		for i, tr := range phaseRes.Tenants {
			if got := lookups[i].n + scans[i].n; got != tr.Completed {
				return fmt.Errorf("experiments: htap-mix class counts %d != %d completions (tenant %s)",
					got, tr.Completed, tr.Tenant)
			}
			tb.AddRow(ratio, tr.Tenant, lookups[i].n, scans[i].n,
				tr.Throughput, lookups[i].meanMS(), scans[i].meanMS(),
				tr.MeanCores)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.AddMetric("machine_cores", float64(machineCores), "cores")
	res.AddMetric("ratio_points", float64(len(c.LookupRatios)), "")
	res.AddMetric("queries_per_point", float64(c.Tenants*c.Clients*htapQueriesPerClient), "")
	return res, nil
}
