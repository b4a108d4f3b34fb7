package tpch

import "testing"

func TestPointLookupFindsEveryKey(t *testing.T) {
	r := newQRig(t, 0.002)
	orders := r.store.Table("orders")
	total := orders.Col("o_totalprice").F
	for seed := uint64(1); seed <= 8; seed++ {
		plan := BuildPointLookup(seed, orders.Rows)
		q := r.exec(t, plan)
		if q.Scalar("result.found") != 1 {
			t.Fatalf("seed %d: lookup missed (keys are dense 0..%d)", seed, orders.Rows-1)
		}
		got := q.Scalar("result")
		found := false
		for _, v := range total {
			if v == got {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("seed %d: result %g is not any order's total price", seed, got)
		}
	}
}

func TestAdHocSpecsAlwaysCompile(t *testing.T) {
	// HTAPMixer.Plan treats an AdHocSpec compile error as unreachable;
	// this is the test backing that claim across many seeds (all shapes
	// rotate through well before 64 draws).
	r := newQRig(t, 0.002)
	for seed := uint64(0); seed < 64; seed++ {
		if _, err := AdHocSpec(seed).Compile(r.store); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	// Each shape both compiles and executes.
	seen := map[string]bool{}
	for seed := uint64(0); seed < 64 && len(seen) < AdHocShapes; seed++ {
		spec := AdHocSpec(seed)
		if seen[spec.Name] {
			continue
		}
		seen[spec.Name] = true
		plan, err := spec.Compile(r.store)
		if err != nil {
			t.Fatal(err)
		}
		r.exec(t, plan)
	}
	if len(seen) < AdHocShapes {
		t.Errorf("only %d of %d ad-hoc shapes appeared in 64 seeds", len(seen), AdHocShapes)
	}
}

func TestHTAPMixerDeterministicAndRatioed(t *testing.T) {
	r := newQRig(t, 0.002)
	mk := func(ratio float64) HTAPMixer {
		return HTAPMixer{
			Store:       r.store,
			OrderRows:   r.store.Table("orders").Rows,
			Seed:        7,
			LookupRatio: ratio,
		}
	}
	// Extremes: ratio 0 submits no lookups, ratio 1 only lookups.
	for k := 0; k < 32; k++ {
		if mk(0).IsLookup(0, k) {
			t.Fatalf("ratio 0 classified slot %d as lookup", k)
		}
		if !mk(1).IsLookup(0, k) {
			t.Fatalf("ratio 1 classified slot %d as scan", k)
		}
	}
	// A middling ratio lands in a plausible band over many slots.
	m := mk(0.5)
	lookups := 0
	const slots = 400
	for c := 0; c < 4; c++ {
		for k := 0; k < slots/4; k++ {
			if m.IsLookup(c, k) {
				lookups++
			}
		}
	}
	if lookups < slots/4 || lookups > 3*slots/4 {
		t.Errorf("ratio 0.5 produced %d/%d lookups", lookups, slots)
	}
	// Plan names are reproducible slot by slot, and classification agrees
	// with the built plan.
	for k := 0; k < 24; k++ {
		a, b := m.Plan(1, k), m.Plan(1, k)
		if a.Name != b.Name {
			t.Fatalf("slot %d not deterministic: %q vs %q", k, a.Name, b.Name)
		}
		if (a.Name == "PointLookup") != m.IsLookup(1, k) {
			t.Fatalf("slot %d: plan %q disagrees with IsLookup", k, a.Name)
		}
	}
	// Mixed streams execute end to end.
	for k := 0; k < 6; k++ {
		q := r.exec(t, m.Plan(2, k))
		if !q.Done() {
			t.Fatalf("slot %d did not finish", k)
		}
	}
}
