package telemetry

// Ring is a bounded FIFO that evicts its oldest element when full and
// iterates oldest first. Storage grows on demand up to the capacity. Ring
// is not safe for concurrent use: its owner guards it with its own mutex.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // live elements
	max  int
}

// NewRing returns an empty ring holding at most capacity elements (at
// least one).
func NewRing[T any](capacity int) Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return Ring[T]{max: capacity}
}

// Len returns the number of elements held.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th element, oldest first; 0 <= i < Len.
func (r *Ring[T]) At(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

// Push appends v, evicting the oldest element when the ring is full. It
// reports whether an element was evicted.
func (r *Ring[T]) Push(v T) (evicted bool) {
	switch {
	case r.n == r.max:
		r.buf[r.head] = v
		r.head = (r.head + 1) % len(r.buf)
		return true
	case r.n < len(r.buf):
		r.buf[(r.head+r.n)%len(r.buf)] = v
	default:
		// Grow. A wrapped ring first unrolls into fresh storage (the full
		// slice expression forces append to copy), so the appended element
		// lands after the newest one.
		if r.head != 0 {
			r.buf = append(r.buf[r.head:len(r.buf):len(r.buf)], r.buf[:r.head]...)
			r.head = 0
		}
		r.buf = append(r.buf, v)
	}
	r.n++
	return false
}

// Slice returns a copy of the elements, oldest first.
func (r *Ring[T]) Slice() []T {
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.At(i)
	}
	return out
}

// Drain removes and returns up to limit elements (all of them when limit
// <= 0), oldest first; nil when the ring is empty.
func (r *Ring[T]) Drain(limit int) []T {
	k := r.n
	if limit > 0 && limit < k {
		k = limit
	}
	if k == 0 {
		return nil
	}
	out := make([]T, k)
	var zero T
	for i := range out {
		out[i] = r.buf[r.head]
		r.buf[r.head] = zero // release the reference
		r.head = (r.head + 1) % len(r.buf)
	}
	r.n -= k
	if r.n == 0 {
		r.head = 0
	}
	return out
}
