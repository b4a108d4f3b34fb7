package tpch

import (
	"reflect"
	"testing"

	"elasticore/internal/db"
)

// spec_test.go holds what lets Build lower its specs unchecked and call
// them data: the catalog check as a test, a walk of the PlanSpec type, and
// the allocation ceiling of a plan.

// TestQuerySpecsCompile is the catalog check Build skips: every query's
// spec, across the seeds that vary its parameters, compiles against a
// loaded store, as does the point lookup's.
func TestQuerySpecsCompile(t *testing.T) {
	r := newQRig(t, 0.002)
	for seed := uint64(0); seed < 64; seed++ {
		for n := 1; n <= QueryCount; n++ {
			if _, err := Spec(n, seed).Compile(r.store); err != nil {
				t.Fatalf("Q%d seed %d: %v", n, seed, err)
			}
		}
		if _, err := pointLookup(seed, r.store.Table("orders").Rows).Compile(r.store); err != nil {
			t.Fatalf("point lookup seed %d: %v", seed, err)
		}
	}
}

// TestPlanSpecIsData: nothing reachable from the db.PlanSpec type is code
// or opaque — no func, channel, interface or unsafe pointer — so a plan is
// a value: building it twice gives equal values, and a parameterised
// query's plans differ between seeds that differ in their parameters.
func TestPlanSpecIsData(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s is a %s: a plan must be data", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Map:
			walk(path+"[key]", ty.Key())
			walk(path+"[value]", ty.Elem())
		}
	}
	walk("PlanSpec", reflect.TypeOf(db.PlanSpec{}))
	if !seen[reflect.TypeOf(db.Pred{})] {
		t.Fatal("the walk did not reach db.Pred")
	}

	for n := 1; n <= QueryCount; n++ {
		if !reflect.DeepEqual(Spec(n, 7), Spec(n, 7)) {
			t.Errorf("Q%d: two builds of one seed are not equal", n)
		}
		differs := false
		for seed := uint64(1); seed < 20 && !differs; seed++ {
			differs = !reflect.DeepEqual(Spec(n, 0), Spec(n, seed))
		}
		if differs == (n == 13) { // Q13 has no parameters
			t.Errorf("Q%d: plans differ across 20 seeds = %v", n, differs)
		}
	}
}

// TestBuildAllocs: a query's plan costs its ops array and the Plan that
// holds it, plus one set for each IN-list predicate, at any op count: 52
// objects for the 22. The ceilings are those counts. (While the lowered
// plan held a closure an op they were 315; as a list of closures with
// closure predicates, 394.)
func TestBuildAllocs(t *testing.T) {
	ceiling := [QueryCount]float64{2, 2, 2, 2, 3, 2, 2, 3, 2, 2, 2, 3, 2, 2, 2, 3, 2, 2, 5, 2, 2, 3}
	total := 0.0
	for n := 1; n <= QueryCount; n++ {
		seed := uint64(0)
		got := testing.AllocsPerRun(20, func() {
			sinkPlan = Build(n, seed)
			seed++
		})
		if got > ceiling[n-1] {
			t.Errorf("Build(%d) allocated %v objects, ceiling %v", n, got, ceiling[n-1])
		}
		total += got
	}
	t.Logf("22 plans: %v objects", total)
}

var sinkPlan *db.Plan
