package obs

import "slices"

// timeline.go stores the per-period timelines of the control loop and the
// probe. At a quiet fixed point every period repeats the value before it
// but for its time stamp, so such a stretch is kept as a count.

// Timeline is an append-only sequence of values, one a period, that keeps
// a stretch of repeats of its last value as a run rather than as copies.
// The zero value is an empty timeline.
type Timeline[T any] struct {
	vals []T
	runs []repeatRun
}

// repeatRun is n repeats of vals[after], the j-th one j periods after it.
type repeatRun struct {
	after, n int
}

// Append records v as the next value.
func (t *Timeline[T]) Append(v T) { t.vals = append(t.vals, v) }

// Repeat records k more periods of the last recorded value, extending the
// run that already follows it. It needs a value recorded before it.
func (t *Timeline[T]) Repeat(k int) {
	last := len(t.vals) - 1
	if n := len(t.runs); n > 0 && t.runs[n-1].after == last {
		t.runs[n-1].n += k
		return
	}
	t.runs = append(t.runs, repeatRun{after: last, n: k})
}

// Grow makes room for n more appended values.
func (t *Timeline[T]) Grow(n int) { t.vals = slices.Grow(t.vals, n) }

// Expand returns every period's value in order, each repeat made by next
// from the period before it. Without a run it returns the timeline's own
// storage, otherwise a fresh slice, so the result may or may not alias the
// timeline and must not be written to.
func (t *Timeline[T]) Expand(next func(T) T) []T {
	if len(t.runs) == 0 {
		return t.vals
	}
	n := len(t.vals)
	for _, r := range t.runs {
		n += r.n
	}
	out := make([]T, 0, n)
	from := 0
	for _, r := range t.runs {
		out = append(out, t.vals[from:r.after+1]...)
		v := t.vals[r.after]
		for j := 0; j < r.n; j++ {
			v = next(v)
			out = append(out, v)
		}
		from = r.after + 1
	}
	return append(out, t.vals[from:]...)
}
