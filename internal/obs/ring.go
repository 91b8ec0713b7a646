package obs

import "sync"

// ring is a fixed-size, mutex-guarded buffer holding the most recent
// len(buf) values written to it: the store of both the wall-clock span
// tracer and the flight recorder. A write fills a preallocated slot, so
// it allocates nothing.
type ring[T any] struct {
	mu  sync.Mutex
	buf []T
	pos uint64 // values ever written
}

func newRing[T any](size int) ring[T] {
	if size < 1 {
		size = 1
	}
	return ring[T]{buf: make([]T, size)}
}

// put stores v, overwriting the oldest value once the ring is full.
func (r *ring[T]) put(v T) {
	r.mu.Lock()
	r.buf[r.pos%uint64(len(r.buf))] = v
	r.pos++
	r.mu.Unlock()
}

// values returns the retained values, oldest first.
func (r *ring[T]) values() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.pos
	size := uint64(len(r.buf))
	first := uint64(0)
	if n > size {
		first = n - size
	}
	out := make([]T, 0, n-first)
	for i := first; i < n; i++ {
		out = append(out, r.buf[i%size])
	}
	return out
}
