package deque

// export_test.go holds the methods only this package's tests call.

// Front returns the front element without removing it; ok is false on an
// empty deque.
func (d *Deque[T]) Front() (v T, ok bool) {
	if d.n == 0 {
		return v, false
	}
	return d.buf[d.head], true
}

// Clear empties the deque, keeping its capacity.
func (d *Deque[T]) Clear() {
	var zero T
	mask := len(d.buf) - 1
	for i := 0; i < d.n; i++ {
		d.buf[(d.head+i)&mask] = zero
	}
	d.head, d.n = 0, 0
}
