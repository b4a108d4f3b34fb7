package experiments

import (
	"strings"
	"testing"
)

func TestConsolidationAcceptance(t *testing.T) {
	c := tiny()
	c.Tenants = 3
	res, err := runExp(t, "consolidation", c)
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Table("tenants")
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}

	// Contention: the tenants' aggregate demand must exceed the machine,
	// otherwise the arbitration below is not being exercised.
	machine, demand := metric(t, res, "machine_cores"), metric(t, res, "peak_aggregate_demand")
	if demand <= machine {
		t.Fatalf("peak aggregate demand %g never exceeded the %g-core machine; no contention", demand, machine)
	}
	// Never over-commit: the sum of tenant cgroup cores stays within the
	// machine at every tick of both runs.
	if peak := metric(t, res, "peak_total_cores"); peak > machine {
		t.Errorf("over-commit: peak total allocation %g > %g machine cores", peak, machine)
	}
	// Starvation floors: every tenant keeps its SLA minimum throughout.
	for i := range tb.Rows {
		name, _ := tb.Str(i, tb.Col("tenant"))
		if seen, floor := cell(t, res, "tenants", "min-seen", name), cell(t, res, "tenants", "floor", name); seen < floor {
			t.Errorf("tenant %s dipped to %g cores, below its SLA floor %g", name, seen, floor)
		}
	}
	// SLA weight effect: the gold tenant (weight 4) must receive
	// measurably more cores and more throughput than the same tenant in
	// the equal-weight baseline run.
	goldCores, goldBase := cell(t, res, "tenants", "mean-cores", "gold"), cell(t, res, "tenants", "base-cores", "gold")
	if goldCores <= goldBase {
		t.Errorf("gold mean cores %.2f not above equal-weight baseline %.2f", goldCores, goldBase)
	}
	if tput, base := cell(t, res, "tenants", "q/s", "gold"), cell(t, res, "tenants", "base-q/s", "gold"); tput <= base {
		t.Errorf("gold throughput %.3f q/s not above equal-weight baseline %.3f q/s", tput, base)
	}
	// And within the weighted run, gold outranks the weight-1 tenant.
	if bronze := cell(t, res, "tenants", "mean-cores", "bronze2"); goldCores <= bronze {
		t.Errorf("gold mean cores %.2f not above bronze %.2f", goldCores, bronze)
	}
	if !strings.Contains(res.String(), "Consolidation") {
		t.Error("rendering broken")
	}
}

func TestConsolidationTenantCountValidation(t *testing.T) {
	c := tiny()
	c.Tenants = 5
	if _, err := runExp(t, "consolidation", c); err == nil {
		t.Error("5 tenants accepted, want 2..4")
	}
	c.Tenants = 1
	if _, err := runExp(t, "consolidation", c); err == nil {
		t.Error("1 tenant accepted, want 2..4")
	}
}

func TestConsolidationTwoTenants(t *testing.T) {
	c := tiny()
	c.Tenants = 2
	c.Clients = 8
	res, err := runExp(t, "consolidation", c)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Table("tenants").Rows); n != 2 {
		t.Fatalf("rows = %d, want 2", n)
	}
	if peak, machine := metric(t, res, "peak_total_cores"), metric(t, res, "machine_cores"); peak > machine {
		t.Errorf("over-commit: %g > %g", peak, machine)
	}
}
