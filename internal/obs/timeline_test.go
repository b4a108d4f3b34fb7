package obs

import (
	"reflect"
	"testing"
)

// TestTimelineRepeatExtendsOneRun: repeats of one value, recorded in any
// number of calls, are one run; Expand stamps each repeat from the period
// before it and returns the timeline's own storage while no run exists.
func TestTimelineRepeatExtendsOneRun(t *testing.T) {
	var tl Timeline[int]
	tl.Append(10)
	tl.Append(20)
	if got := tl.Expand(nil); &got[0] != &tl.vals[0] {
		t.Fatal("a timeline without runs was copied")
	}
	tl.Repeat(2)
	tl.Repeat(1)
	tl.Append(50)
	tl.Repeat(1)
	if len(tl.runs) != 2 {
		t.Fatalf("%d runs after repeats of two values, want 2", len(tl.runs))
	}
	got := tl.Expand(func(v int) int { return v + 1 })
	if want := []int{10, 20, 21, 22, 23, 50, 51}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Expand = %v, want %v", got, want)
	}
}
