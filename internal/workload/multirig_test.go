package workload

import (
	"strings"
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/tenant"
	"elasticore/internal/tpch"
)

func twoTenantRig(t *testing.T) *MultiRig {
	t.Helper()
	m, err := NewMultiRig(MultiOptions{
		Tenants: []TenantSpec{
			{Name: "gold", SF: 0.002, Mode: ModeDense, SLA: tenant.SLA{Weight: 4, MinCores: 2}},
			{Name: "bronze", SF: 0.002, Mode: ModeSparse, SLA: tenant.SLA{Weight: 1, MinCores: 1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMultiRigBuildsIsolatedTenants(t *testing.T) {
	m := twoTenantRig(t)
	if len(m.Tenants) != 2 {
		t.Fatalf("tenants = %d", len(m.Tenants))
	}
	if m.Tenants[0].PID == m.Tenants[1].PID {
		t.Error("tenants share a PID")
	}
	if m.Tenants[0].Store == m.Tenants[1].Store {
		t.Error("tenants share a store")
	}
	if !m.Tenants[0].Allocated().Intersect(m.Tenants[1].Allocated()).IsEmpty() {
		t.Errorf("initial cpusets overlap: %v vs %v",
			m.Tenants[0].Allocated(), m.Tenants[1].Allocated())
	}
	for _, tr := range m.Tenants {
		if got := tr.Allocated().Count(); got != tr.SLA.MinCores {
			t.Errorf("tenant %s starts with %d cores, want floor %d", tr.Name, got, tr.SLA.MinCores)
		}
		if tr.Dataset == nil || tr.Engine == nil {
			t.Errorf("tenant %s missing dataset or engine", tr.Name)
		}
	}
}

func TestNewMultiRigRejectsBadSpecs(t *testing.T) {
	if _, err := NewMultiRig(MultiOptions{}); err == nil {
		t.Error("empty tenant list accepted")
	}
	_, err := NewMultiRig(MultiOptions{Tenants: []TenantSpec{{Name: "x", SF: 0.002, Mode: Mode(9)}}})
	if err == nil || !strings.Contains(err.Error(), "mode(9)") {
		t.Errorf("unknown tenant mode: err = %v, want one naming mode(9)", err)
	}
}

// TestTenantModeDefaultsToDense: a spec without a mode runs the
// documented default rather than failing as ModeOS.
func TestTenantModeDefaultsToDense(t *testing.T) {
	m, err := NewMultiRig(MultiOptions{Tenants: []TenantSpec{{SF: 0.002}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Tenants[0].Spec.Mode; got != ModeDense {
		t.Errorf("tenant mode %v, want dense", got)
	}
}

func TestMultiRigRunConcurrentTenants(t *testing.T) {
	m := twoTenantRig(t)
	q6 := func(c, k int) *db.Plan { return tpch.Build(6, uint64(c*100+k+1)) }
	res, err := m.Run([]TenantLoad{
		{Clients: 8, QueriesPerClient: 2, Plan: q6},
		{Clients: 8, QueriesPerClient: 2, Plan: q6},
	}, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakTotalCores > res.MachineCores {
		t.Errorf("over-commit: peak %d cores on a %d-core machine", res.PeakTotalCores, res.MachineCores)
	}
	for i, tr := range res.Tenants {
		if tr.Completed == 0 {
			t.Errorf("tenant %s completed no queries", tr.Tenant)
		}
		if tr.MinCores < m.Tenants[i].SLA.MinCores {
			t.Errorf("tenant %s dipped to %d cores, below its floor %d",
				tr.Tenant, tr.MinCores, m.Tenants[i].SLA.MinCores)
		}
		if tr.MeanCores <= 0 || tr.MaxCores < tr.MinCores {
			t.Errorf("tenant %s has degenerate core stats: %+v", tr.Tenant, tr)
		}
	}
}

func TestMultiRigRunLoadCountMustMatch(t *testing.T) {
	m := twoTenantRig(t)
	if _, err := m.Run([]TenantLoad{{Clients: 1}}, 0, 1); err == nil {
		t.Error("mismatched load count accepted")
	}
}

func TestMultiRigRunRejectsNegativeClients(t *testing.T) {
	m := twoTenantRig(t)
	q6 := func(c, k int) *db.Plan { return tpch.Build(6, uint64(c+1)) }
	res, err := m.Run([]TenantLoad{{Clients: 2, Plan: q6}, {Clients: -1, Plan: q6}}, 0, 1)
	if err == nil || res != nil {
		t.Fatalf("negative client count accepted: %v, %v", res, err)
	}
	if now := m.Machine.Now(); now != 0 {
		t.Errorf("the rejected phase ran to cycle %d", now)
	}
}

func TestMultiRigAdaptiveTenants(t *testing.T) {
	m, err := NewMultiRig(MultiOptions{
		Tenants: []TenantSpec{
			{Name: "a", SF: 0.002, Mode: ModeAdaptive},
			{Name: "b", SF: 0.002, Mode: ModeAdaptive},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	q1 := func(c, k int) *db.Plan { return tpch.Build(1, uint64(c+1)) }
	res, err := m.Run([]TenantLoad{
		{Clients: 4, Plan: q1},
		{Clients: 4, Plan: q1},
	}, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakTotalCores > res.MachineCores {
		t.Errorf("over-commit: peak %d of %d", res.PeakTotalCores, res.MachineCores)
	}
}
