package experiments

import (
	"context"
	"fmt"

	"elasticore/internal/db"
	"elasticore/internal/tenant"
	"elasticore/internal/workload"
)

// consolidation.go implements the paper's Section VII future-work setting
// as an experiment: several tenant databases, each running the elastic
// mechanism, consolidated onto one machine by the core arbiter
// (internal/tenant). Every tenant is saturated so the aggregate demand
// races past the machine, and the arbiter must divide cores by SLA weight
// without over-committing or starving anyone. A second, equal-weight run
// of the same workload provides the baseline against which the SLA effect
// is measured.

// consolidationSpecs builds n tenant specs in descending priority: the
// first tenant is "gold" (weight 4, floor 2), the second "silver"
// (weight 2), the rest "bronze" (weight 1). Weights are overridden to 1
// for the equal-weight baseline.
func consolidationSpecs(c Config, n int, equalWeights bool) []workload.TenantSpec {
	specs := make([]workload.TenantSpec, n)
	for i := range specs {
		name, weight, floor := fmt.Sprintf("bronze%d", i), 1, 1
		switch i {
		case 0:
			name, weight, floor = "gold", 4, 2
		case 1:
			name, weight = "silver", 2
		}
		if equalWeights {
			weight = 1
		}
		specs[i] = workload.TenantSpec{
			Name:      name,
			SF:        c.SF,
			Seed:      c.Seed + uint64(i),
			Mode:      workload.ModeDense,
			SLA:       tenant.SLA{Weight: weight, MinCores: floor},
			Placement: c.Placement,
		}
	}
	return specs
}

// consolidationSeconds is the fixed virtual duration of one consolidation
// phase. The phase is time-bounded — every client resubmits for the whole
// window — so per-tenant throughput reflects the cores each tenant was
// granted, not the size of a finite work list.
const consolidationSeconds = 0.25

// runConsolidationOnce builds a multi-tenant rig from the specs and
// saturates every tenant with a continuous theta-scan stream for the
// fixed phase window.
func runConsolidationOnce(c Config, specs []workload.TenantSpec) (*workload.MultiRig, *workload.MultiPhaseResult, error) {
	aggregateSF := 0.0
	for _, s := range specs {
		aggregateSF += s.SF
	}
	topo, err := c.machineTopology(aggregateSF)
	if err != nil {
		return nil, nil, err
	}
	rig, err := workload.NewMultiRig(workload.MultiOptions{Tenants: specs, Topology: topo, Bus: c.Bus})
	if err != nil {
		return nil, nil, err
	}
	loads := make([]workload.TenantLoad, len(specs))
	for i := range loads {
		loads[i] = workload.TenantLoad{
			Clients:          c.Clients,
			QueriesPerClient: 1 << 20, // never drains; the window bounds the phase
			Plan:             func(cl, k int) *db.Plan { return thetaPlan(0.45) },
		}
	}
	res, err := rig.Run(loads, 0, consolidationSeconds)
	if err != nil {
		return nil, nil, err
	}
	return rig, res, nil
}

// runConsolidation executes the experiment: a weighted run and an
// equal-weight baseline of the same tenants and load. Config.Tenants
// selects the tenant count (validated centrally to 2..4, default 3);
// Clients is the per-tenant concurrency.
func runConsolidation(ctx context.Context, c Config, obs Observer) (*Result, error) {
	n := c.Tenants

	var weightedRig *workload.MultiRig
	var weighted, baseline *workload.MultiPhaseResult
	runPhase := func(equal bool) string {
		if equal {
			return "equal-weight baseline"
		}
		return fmt.Sprintf("weighted tenants=%d", n)
	}
	err := sweep(ctx, obs, []bool{false, true}, runPhase, func(_ int, equal bool) error {
		rig, r, err := runConsolidationOnce(c, consolidationSpecs(c, n, equal))
		if equal {
			baseline = r
		} else {
			weightedRig, weighted = rig, r
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	peakTotal := weighted.PeakTotalCores
	if baseline.PeakTotalCores > peakTotal {
		peakTotal = baseline.PeakTotalCores
	}

	res := &Result{}
	tb := res.AddTable("tenants",
		colS("tenant"), colI("weight"), colI("floor"), colF("q/s", 3),
		colF("mean-cores", 2), colI("max"), colI("min-seen"),
		colF("base-q/s", 3), colF("base-cores", 2))
	for i, tr := range weighted.Tenants {
		spec := weightedRig.Tenants[i]
		tb.AddRow(tr.Tenant, spec.SLA.Weight, spec.SLA.MinCores,
			tr.Throughput, tr.MeanCores, tr.MaxCores, tr.MinCores,
			baseline.Tenants[i].Throughput, baseline.Tenants[i].MeanCores)
	}
	res.AddMetric("machine_cores", float64(weighted.MachineCores), "cores")
	res.AddMetric("peak_total_cores", float64(peakTotal), "cores")
	res.AddMetric("peak_aggregate_demand", float64(weightedRig.Arbiter.PeakAggregateDemand()), "cores")
	res.AddMetric("elapsed_s", weighted.ElapsedSeconds, "s")
	return res, nil
}
