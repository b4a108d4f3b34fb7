package workload

import (
	"testing"

	"elasticore/internal/db"
	"elasticore/internal/tpch"
)

// admission_test.go covers the failure-path additions to the shared
// admission layer: crash aborts (FailAll + zombie reaping), brownout
// queue tightening and the Down gate on Fill.

// admRig builds a small rig plus an Admission with tight limits.
func admRig(t *testing.T) (*Rig, *Admission) {
	t.Helper()
	r, err := NewRig(Options{SF: 0.002, Seed: 1, Mode: ModeOS})
	if err != nil {
		t.Fatal(err)
	}
	return r, &Admission{Rig: r, MaxInFlight: 2, QueueCap: 4}
}

func q6plan(k int, tag int64) *db.Plan { return tpch.BuildQ6(uint64(tag) + 1) }

func TestAdmissionFailAllAndZombies(t *testing.T) {
	r, a := admRig(t)
	var failed []int64
	a.OnFail = func(tag int64) { failed = append(failed, tag) }
	a.OnComplete = func(tag int64, q *db.Query, total, service uint64) {
		t.Errorf("aborted request %d reported completion", tag)
	}

	for tag := int64(0); tag < 2; tag++ {
		if !a.Offer(0, 0, tag) {
			t.Fatalf("offer %d dropped below the cap", tag)
		}
	}
	a.Fill(0, q6plan)
	for tag := int64(2); tag < 5; tag++ {
		if !a.Offer(0, 0, tag) {
			t.Fatalf("offer %d dropped below the cap", tag)
		}
	}
	if a.InFlight() != 2 || a.QueueLen() != 3 {
		t.Fatalf("in flight %d queued %d, want 2/3", a.InFlight(), a.QueueLen())
	}

	a.Down = true
	a.FailAll()
	if a.Failed != 5 || len(failed) != 5 {
		t.Fatalf("Failed=%d callbacks=%d, want 5", a.Failed, len(failed))
	}
	// FCFS abort order: the three queued tags first, then the flights.
	want := []int64{2, 3, 4, 0, 1}
	for i, tag := range want {
		if failed[i] != tag {
			t.Fatalf("abort order %v, want %v", failed, want)
		}
	}
	if !a.Idle() {
		t.Fatal("admission not idle after FailAll (zombies must not count)")
	}

	// While down, nothing seats even if something sneaks into the queue.
	a.Offer(0, 0, 9)
	a.Fill(0, q6plan)
	if a.InFlight() != 0 {
		t.Fatal("Fill seated a query on a down machine")
	}

	// Recovery: the zombie queries finish and are reaped silently.
	a.Down = false
	for i := 0; i < 100000 && len(a.zombies) > 0; i++ {
		r.Tick()
		a.Collect(r.Machine.Now())
	}
	if len(a.zombies) > 0 {
		t.Fatal("zombie queries never finished after recovery")
	}
	if a.Completed != 0 || a.Latency.Count() != 0 {
		t.Fatal("zombie reaping leaked into completion stats")
	}
}

func TestAdmissionBrownout(t *testing.T) {
	_, a := admRig(t)
	a.BrownoutCap = 2
	admitted := 0
	for tag := int64(0); tag < 4; tag++ {
		if a.Offer(0, 0, tag) {
			admitted++
		}
	}
	if admitted != 2 || a.Dropped != 2 {
		t.Fatalf("brownout admitted %d dropped %d, want 2/2", admitted, a.Dropped)
	}
	a.BrownoutCap = 0
	if !a.Offer(0, 0, 9) {
		t.Fatal("clearing the brownout did not restore the full queue cap")
	}
}
