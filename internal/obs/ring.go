package obs

// Ring is a bounded overwrite-oldest buffer: it keeps the most recent
// cap elements, and once full each Push replaces the oldest element and
// counts it as dropped. Pushing never allocates after NewRing. The
// simulator's event tracer and the fleet's span recorder both use it.
// The zero Ring has no capacity and records nothing. A Ring is not safe
// for concurrent use; callers that share one hold their own lock.
type Ring[T any] struct {
	buf []T
	// head is the next slot to overwrite once buf is full, which is
	// also the oldest retained element.
	head    int
	dropped uint64
}

// NewRing returns an empty ring that retains up to capacity elements.
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{buf: make([]T, 0, capacity)}
}

// Push appends v, overwriting the oldest element once the ring is full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.head] = v
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.dropped++
}

// Len returns the number of retained elements.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Dropped returns how many elements were overwritten.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// Items returns the retained elements oldest first, in a new slice
// (nil when the ring is empty).
func (r *Ring[T]) Items() []T {
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}
