package deque

import (
	"testing"
)

// FuzzDeque cross-checks the ring deque against a plain-slice model under
// arbitrary operation sequences. The fuzz input is a byte program: each
// byte's low bits select an operation, its high bits parametrize the
// index for the positional ones. CI runs this as a short -fuzztime smoke
// job; `go test` alone replays the seed corpus and any checked-in crash
// reproducers.
func FuzzDeque(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 0, 0, 2, 2, 2, 2, 1, 1, 1, 1, 3, 3, 3, 3})
	f.Add([]byte{0, 1, 0, 1, 4, 0, 12, 1, 6, 5, 0, 6})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 204, 20, 6, 5, 6})

	f.Fuzz(func(t *testing.T, program []byte) {
		var d Deque[int]
		var model []int
		next := 0 // distinct values make misplacements visible

		for pc, op := range program {
			switch op & 7 {
			case 0: // PushBack
				d.PushBack(next)
				model = append(model, next)
				next++
			case 1: // PushFront
				d.PushFront(next)
				model = append([]int{next}, model...)
				next++
			case 2: // PopFront
				v, ok := d.PopFront()
				if ok != (len(model) > 0) {
					t.Fatalf("pc %d: PopFront ok=%v with model size %d", pc, ok, len(model))
				}
				if ok {
					if v != model[0] {
						t.Fatalf("pc %d: PopFront = %d, model front %d", pc, v, model[0])
					}
					model = model[1:]
				}
			case 3: // Front
				v, ok := d.Front()
				if ok != (len(model) > 0) {
					t.Fatalf("pc %d: Front ok=%v with model size %d", pc, ok, len(model))
				}
				if ok && v != model[0] {
					t.Fatalf("pc %d: Front = %d, model front %d", pc, v, model[0])
				}
			case 4: // RemoveAt
				if len(model) == 0 {
					continue
				}
				i := int(op>>3) % len(model)
				v := d.RemoveAt(i)
				if v != model[i] {
					t.Fatalf("pc %d: RemoveAt(%d) = %d, model %d", pc, i, v, model[i])
				}
				model = append(model[:i], model[i+1:]...)
			case 5: // Clear
				d.Clear()
				model = model[:0]
			default: // 6, 7: full scan via At
				for i := range model {
					if d.At(i) != model[i] {
						t.Fatalf("pc %d: At(%d) = %d, model %d", pc, i, d.At(i), model[i])
					}
				}
			}
			if d.Len() != len(model) {
				t.Fatalf("pc %d: Len = %d, model size %d", pc, d.Len(), len(model))
			}
		}
	})
}
