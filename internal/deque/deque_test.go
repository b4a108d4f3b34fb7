package deque

import (
	"math/rand"
	"testing"
)

func TestFIFO(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 100; i++ {
		d.PushBack(i)
	}
	if d.Len() != 100 {
		t.Fatalf("Len = %d, want 100", d.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := d.PopFront()
		if !ok || v != i {
			t.Fatalf("PopFront = %d,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := d.PopFront(); ok {
		t.Fatal("PopFront on empty deque reported ok")
	}
}

func TestPushFront(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 50; i++ {
		d.PushFront(i)
	}
	for i := 49; i >= 0; i-- {
		v, _ := d.PopFront()
		if v != i {
			t.Fatalf("PopFront = %d, want %d", v, i)
		}
	}
}

func TestAtAndFront(t *testing.T) {
	var d Deque[string]
	if _, ok := d.Front(); ok {
		t.Fatal("Front on empty deque reported ok")
	}
	d.PushBack("a")
	d.PushBack("b")
	d.PushFront("z")
	want := []string{"z", "a", "b"}
	for i, w := range want {
		if got := d.At(i); got != w {
			t.Fatalf("At(%d) = %q, want %q", i, got, w)
		}
	}
	if v, _ := d.Front(); v != "z" {
		t.Fatalf("Front = %q, want z", v)
	}
}

// TestRemoveAtAgainstSlice cross-checks a long random operation sequence
// against a reference slice implementation.
func TestRemoveAtAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var d Deque[int]
	var ref []int
	next := 0
	for step := 0; step < 20000; step++ {
		if d.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, d.Len(), len(ref))
		}
		switch op := rng.Intn(5); {
		case op == 0 || len(ref) == 0:
			d.PushBack(next)
			ref = append(ref, next)
			next++
		case op == 1:
			d.PushFront(next)
			ref = append([]int{next}, ref...)
			next++
		case op == 2:
			v, _ := d.PopFront()
			if v != ref[0] {
				t.Fatalf("step %d: PopFront = %d, want %d", step, v, ref[0])
			}
			ref = ref[1:]
		default:
			i := rng.Intn(len(ref))
			v := d.RemoveAt(i)
			if v != ref[i] {
				t.Fatalf("step %d: RemoveAt(%d) = %d, want %d", step, i, v, ref[i])
			}
			ref = append(ref[:i], ref[i+1:]...)
		}
	}
	for i, w := range ref {
		if got := d.At(i); got != w {
			t.Fatalf("final At(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestClear(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 10; i++ {
		d.PushBack(i)
	}
	d.Clear()
	if d.Len() != 0 {
		t.Fatalf("Len after Clear = %d", d.Len())
	}
	d.PushBack(7)
	if v, _ := d.PopFront(); v != 7 {
		t.Fatalf("PopFront after Clear = %d, want 7", v)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	var d Deque[int]
	d.PushBack(1)
	for _, f := range []func(){
		func() { d.At(1) },
		func() { d.At(-1) },
		func() { d.RemoveAt(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestSteadyStateNoAlloc guards the hot-path property the scheduler relies
// on: once grown, push/pop cycles do not allocate.
func TestSteadyStateNoAlloc(t *testing.T) {
	var d Deque[*int]
	x := new(int)
	for i := 0; i < 16; i++ {
		d.PushBack(x)
	}
	for d.Len() > 0 {
		d.PopFront()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			d.PushBack(x)
		}
		for d.Len() > 0 {
			d.PopFront()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %v times per run", allocs)
	}
}
