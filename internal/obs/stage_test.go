package obs

import (
	"reflect"
	"testing"
)

// TestViewPassthrough: outside a staged section a view is transparent —
// publishes land on the parent immediately, subscribers fire, reads
// delegate.
func TestViewPassthrough(t *testing.T) {
	parent := NewBus(8)
	v := NewView(parent)
	if v.parent != parent {
		t.Fatal("view does not report its parent")
	}
	var seen int
	v.Subscribe(KindMigration, func(Event) { seen++ })
	v.Publish(Event{Kind: KindMigration, Now: 1})
	if seen != 1 {
		t.Fatalf("subscriber fired %d times, want 1", seen)
	}
	if parent.Len() != 1 || v.Len() != 1 {
		t.Fatalf("parent retains %d events, view reports %d, want 1/1", parent.Len(), v.Len())
	}
	if !reflect.DeepEqual(v.Events(), parent.Events()) {
		t.Fatal("view reads diverge from parent reads")
	}
}

// TestViewStaging: between BeginStage and EndStage publishes buffer
// per quantum, the parent stays untouched, and the driver can replay the
// staged quanta in order.
func TestViewStaging(t *testing.T) {
	parent := NewBus(8)
	v := NewView(parent)
	v.BeginStage()
	v.Publish(Event{Kind: KindRunSlice, Now: 10})
	v.Publish(Event{Kind: KindRunSlice, Now: 10, Core: 1})
	v.Mark() // quantum 0: two events
	v.Mark() // quantum 1: none
	v.Publish(Event{Kind: KindMigration, Now: 30})
	v.Mark() // quantum 2: one event
	if parent.Len() != 0 {
		t.Fatalf("parent saw %d events during staging, want 0", parent.Len())
	}
	if got := len(v.Staged(0)); got != 2 {
		t.Fatalf("quantum 0 staged %d events, want 2", got)
	}
	if got := len(v.Staged(1)); got != 0 {
		t.Fatalf("quantum 1 staged %d events, want 0", got)
	}
	if got := v.Staged(2); len(got) != 1 || got[0].Kind != KindMigration {
		t.Fatalf("quantum 2 staged %v, want one migration", got)
	}
	if got := v.Staged(3); got != nil {
		t.Fatalf("quantum beyond the marks staged %v, want nil", got)
	}
	for q := 0; q < 3; q++ {
		for _, e := range v.Staged(q) {
			parent.Publish(e)
		}
	}
	v.EndStage()
	if parent.Len() != 3 {
		t.Fatalf("parent retains %d events after replay, want 3", parent.Len())
	}
	v.Publish(Event{Kind: KindRunSlice, Now: 40})
	if parent.Len() != 4 {
		t.Fatal("view did not return to passthrough after EndStage")
	}
	// A second section reuses the buffers from zero.
	v.BeginStage()
	v.Mark()
	if got := len(v.Staged(0)); got != 0 {
		t.Fatalf("stale staged events leaked into a new section: %d", got)
	}
	v.EndStage()
}
