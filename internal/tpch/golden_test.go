package tpch

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"elasticore/internal/db"
)

// golden_test.go pins what the 22 query plans compute and what they cost,
// so a change to how a plan is expressed is checked against how it behaved:
// regenerate with `go test ./internal/tpch -run 'Signatures|PlanText'
// -update` only for a stated change to a query or to the model.

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// groups returns a finished query's merged groups, if its plan ends in them.
func groups(q *db.Query) (gk []int64, gs []float64, ok bool) {
	defer func() { recover() }()
	return q.Var("gk").FlattenI64(), q.Var("gs").FlattenF64(), true
}

// resultHash is the FNV-1a hash of what a query computed: its groups, or
// the "result" and "total" scalars of a plan that ends in a scalar.
func resultHash(q *db.Query) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	gk, gs, ok := groups(q)
	if !ok {
		put(math.Float64bits(q.Scalar("result")))
		put(math.Float64bits(q.Scalar("total")))
		return h.Sum64()
	}
	for _, k := range gk {
		put(uint64(k))
	}
	for _, s := range gs {
		put(math.Float64bits(s))
	}
	return h.Sum64()
}

// TestQuerySignatures runs queries 1…22 at seeds 1…8, one fresh SF 0.002
// rig per query number, and pins per run the hash of the result, the
// simulated latency and the tasks executed.
func TestQuerySignatures(t *testing.T) {
	var out bytes.Buffer
	for n := 1; n <= QueryCount; n++ {
		r := newQRig(t, 0.002)
		for seed := uint64(1); seed <= 8; seed++ {
			tasks := r.eng.TasksExecuted
			q := r.exec(t, Build(n, seed))
			fmt.Fprintf(&out, "Q%d seed=%d result=%016x cycles=%d tasks=%d\n",
				n, seed, resultHash(q), q.ElapsedCycles(), r.eng.TasksExecuted-tasks)
		}
	}
	checkGolden(t, "queries.golden", out.Bytes())
}

// TestPlanText pins the 22 plans at seed 1 as text, one line per step, so
// an edit to a query is reviewed as a diff of testdata/plans.golden.
func TestPlanText(t *testing.T) {
	var out bytes.Buffer
	for n := 1; n <= QueryCount; n++ {
		out.WriteString(Spec(n, 1).String())
	}
	checkGolden(t, "plans.golden", out.Bytes())
}
