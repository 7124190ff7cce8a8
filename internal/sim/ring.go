package sim

// ring is a preallocated power-of-two circular buffer, the storage for
// every queue in the machine: the eight data FIFOs, the two
// condition-code FIFOs, the unit instruction queues, the store matcher
// and the memory write queue.  The previous slice representation popped
// the front by reslicing, which made every steady-state producer/
// consumer pair reallocate and memmove continuously; the ring pops in
// O(1) and stops allocating once it has grown to the working depth.
//
// The zero value is an empty ring; push grows it on demand.  Every
// element type the machine queues is pointer-free, so the buffers are
// never scanned by the GC and a stale slot keeps nothing alive.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// push appends v at the tail.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow(2 * len(r.buf))
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the head entry, leaving the vacated slot as
// it was.  Like indexing an empty slice, popping an empty ring is a
// caller bug; callers guard on n.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// at returns a pointer to the i-th entry counted from the head (0 =
// next to pop).  The pointer is invalidated by the next push.
func (r *ring[T]) at(i int) *T {
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// reserve grows the buffer so at least c entries fit without further
// allocation.
func (r *ring[T]) reserve(c int) {
	if c > len(r.buf) {
		r.grow(c)
	}
}

// reset empties the ring, keeping its buffer.
func (r *ring[T]) reset() {
	r.head = 0
	r.n = 0
}

// grow reallocates to the smallest power of two >= max(c, 8), moving
// the live entries to the front.  Kept out of line so push inlines.
//
//go:noinline
func (r *ring[T]) grow(c int) {
	size := 8
	for size < c {
		size <<= 1
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
