// Package deque provides a growable ring-buffer double-ended queue.
//
// It replaces the two O(n) queue idioms the simulator's hot paths grew up
// with: the `q = q[1:]` slice-shift FIFO (which strands backing capacity
// and forces reallocating appends) and the `append([]*T{x}, q...)`
// front-insert (which copies the whole queue per wake-up). Every operation
// is O(1) amortized except RemoveAt, which shifts the shorter side
// (O(min(i, n-i))), and Clear (O(n)); none allocates once the ring has
// grown to its steady-state capacity.
package deque

// Deque is a double-ended queue over a power-of-two ring buffer. The zero
// value is an empty deque ready for use.
type Deque[T any] struct {
	buf  []T // len(buf) is always zero or a power of two
	head int // index of the front element when n > 0
	n    int
}

// Len returns the number of queued elements.
func (d *Deque[T]) Len() int { return d.n }

// PushBack appends v at the back.
func (d *Deque[T]) PushBack(v T) {
	d.ensure()
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = v
	d.n++
}

// PushFront inserts v at the front.
func (d *Deque[T]) PushFront(v T) {
	d.ensure()
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = v
	d.n++
}

// PopFront removes and returns the front element; ok is false on an empty
// deque.
func (d *Deque[T]) PopFront() (v T, ok bool) {
	if d.n == 0 {
		return v, false
	}
	v = d.buf[d.head]
	var zero T
	d.buf[d.head] = zero // release references for GC
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return v, true
}

// At returns the i-th element from the front. It panics when i is out of
// range, mirroring slice indexing.
func (d *Deque[T]) At(i int) T {
	if i < 0 || i >= d.n {
		panic("deque: index out of range")
	}
	return d.buf[(d.head+i)&(len(d.buf)-1)]
}

// shiftRightRaw moves count ring elements starting at raw index s one
// slot toward higher raw indices (mod len), using bulk copies: the moved
// range is at most two contiguous segments plus one wrapping element.
func (d *Deque[T]) shiftRightRaw(s, count int) {
	if count <= 0 {
		return
	}
	buf := d.buf
	n := len(buf)
	if s+count <= n {
		if s+count < n {
			copy(buf[s+1:s+count+1], buf[s:s+count])
		} else {
			buf[0] = buf[n-1]
			copy(buf[s+1:], buf[s:n-1])
		}
		return
	}
	e := s + count - n
	copy(buf[1:e+1], buf[:e])
	buf[0] = buf[n-1]
	copy(buf[s+1:], buf[s:n-1])
}

// shiftLeftRaw moves count ring elements starting at raw index s one slot
// toward lower raw indices (mod len).
func (d *Deque[T]) shiftLeftRaw(s, count int) {
	if count <= 0 {
		return
	}
	buf := d.buf
	n := len(buf)
	if s == 0 {
		buf[n-1] = buf[0]
		copy(buf[:count-1], buf[1:count])
		return
	}
	if s+count <= n {
		copy(buf[s-1:s+count-1], buf[s:s+count])
		return
	}
	e := s + count - n
	copy(buf[s-1:], buf[s:])
	buf[n-1] = buf[0]
	copy(buf[:e-1], buf[1:e])
}

// RemoveAt removes and returns the i-th element from the front, preserving
// the order of the remaining elements. It shifts the shorter side, so the
// cost is O(min(i, n-i)). It panics when i is out of range.
func (d *Deque[T]) RemoveAt(i int) T {
	if i < 0 || i >= d.n {
		panic("deque: index out of range")
	}
	mask := len(d.buf) - 1
	v := d.buf[(d.head+i)&mask]
	var zero T
	if i < d.n-i-1 {
		// Shift the front half back by one.
		d.shiftRightRaw(d.head, i)
		d.buf[d.head] = zero
		d.head = (d.head + 1) & mask
	} else {
		// Shift the back half forward by one.
		d.shiftLeftRaw((d.head+i+1)&mask, d.n-i-1)
		d.buf[(d.head+d.n-1)&mask] = zero
	}
	d.n--
	return v
}

// ensure grows the ring when full, unwrapping the elements into the new
// buffer.
func (d *Deque[T]) ensure() {
	if d.n < len(d.buf) {
		return
	}
	size := len(d.buf) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	mask := len(d.buf) - 1
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)&mask]
	}
	d.buf, d.head = buf, 0
}
