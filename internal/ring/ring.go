// Package ring is the one bounded FIFO of the control plane: the
// newest N values of a stream, oldest first, for logs that keep only
// their tail (tombstones, task results, lifecycle events) and for the
// trace store's retention sets.
package ring

// Ring keeps at most its capacity of values, oldest first; a push past
// the capacity overwrites the oldest. The backing array grows by
// doubling up to the capacity, so a ring that never fills never holds
// its whole bound. The zero Ring has capacity 0 and keeps nothing. A
// Ring is a value: copy it only to move it, never to share it.
type Ring[T any] struct {
	buf  []T // len(buf) is the current physical size
	head int // index in buf of the oldest value
	n    int // values held
	max  int
}

// New returns an empty ring of the given capacity.
func New[T any](capacity int) Ring[T] { return Ring[T]{max: capacity} }

// Len is the number of values held.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th oldest value, 0 ≤ i < Len.
func (r *Ring[T]) At(i int) T { return r.buf[r.slot(i)] }

func (r *Ring[T]) slot(i int) int {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// Push appends v as the newest value. When the ring was full the oldest
// value leaves it and is returned with true.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	if r.max == 0 {
		return v, true
	}
	evicted = r.n == r.max
	slot := r.Next()
	old, *slot = *slot, v
	return old, evicted
}

// Next makes room for one more value as the newest, as Push does, and
// returns its slot for the caller to fill in place. The slot holds the
// zero value or, when the ring was full, the oldest value, which has just
// left the ring: a caller that reuses the arrays that value holds
// allocates nothing once the ring is full. The capacity must be positive.
func (r *Ring[T]) Next() *T {
	if r.n < r.max {
		if r.n == len(r.buf) {
			r.grow()
		}
		r.n++
		return &r.buf[r.slot(r.n-1)]
	}
	slot := &r.buf[r.head]
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	return slot
}

// grow doubles the backing array (at least 4, at most the capacity),
// laying the values out oldest first from index 0.
func (r *Ring[T]) grow() {
	nb := make([]T, min(max(2*len(r.buf), 4), r.max))
	r.AppendTo(nb[:0])
	r.buf, r.head = nb, 0
}

// Clear empties r and keeps its buffer for the values pushed next.
func (r *Ring[T]) Clear() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// Remove takes the i-th oldest value out, keeping the others in order.
// It moves the values on the shorter side of i, so removing near either
// end is O(1).
func (r *Ring[T]) Remove(i int) {
	var zero T
	if i < r.n/2 {
		for j := i; j > 0; j-- {
			r.buf[r.slot(j)] = r.buf[r.slot(j-1)]
		}
		r.buf[r.head] = zero
		if r.head++; r.head == len(r.buf) {
			r.head = 0
		}
	} else {
		for j := i; j < r.n-1; j++ {
			r.buf[r.slot(j)] = r.buf[r.slot(j+1)]
		}
		r.buf[r.slot(r.n-1)] = zero
	}
	r.n--
}

// AppendTo appends the values to dst, oldest first.
func (r *Ring[T]) AppendTo(dst []T) []T {
	if r.n == 0 {
		return dst
	}
	if end := r.head + r.n; end <= len(r.buf) {
		return append(dst, r.buf[r.head:end]...)
	}
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:r.head+r.n-len(r.buf)]...)
}
