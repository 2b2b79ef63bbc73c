// Package ringbuf implements the lock-free single-producer/single-consumer
// circular buffer KML uses to decouple data collection from the work that
// consumes it (§3.1–3.2 of the paper): the tracepoint hook pushes, and the
// readahead loop's tick drains the ring into feature windows.
//
// The producer side runs on the I/O path, so it must never block, never
// allocate, and never take a lock; when the buffer is full the sample is
// dropped and counted, matching the paper's observation that "losing part of
// the training data could reduce the model's accuracy" and that users must
// size the buffer against their sampling rate.
//
//kml:kernelspace
package ringbuf

import "sync/atomic"

// Ring is a bounded SPSC queue. Exactly one goroutine may call TryPush and
// exactly one may call PopBatch; this is the same contract as the in-kernel
// original (the I/O path produces, the tuner's tick consumes).
type Ring[T any] struct {
	// head is the next slot to pop; written only by the consumer.
	head atomic.Uint64
	_    [56]byte // keep producer and consumer indices on separate cache lines
	// tail is the next slot to push; written only by the producer.
	tail atomic.Uint64
	_    [56]byte

	dropped atomic.Uint64
	mask    uint64
	buf     []T
}

// MaxCapacity is the largest accepted ring capacity: the round-up loop
// must be able to represent the next power of two in a uint64 without the
// shift wrapping to zero.
const MaxCapacity = 1 << 62

// New returns a ring with capacity rounded up to the next power of two
// (minimum 2). It panics if capacity is not positive or exceeds
// MaxCapacity; without the bound, the round-up shift would wrap to zero
// on a huge request and spin forever (and a negative capacity converts to
// an enormous uint64).
func New[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic("ringbuf: capacity must be positive")
	}
	if capacity > MaxCapacity {
		panic("ringbuf: capacity exceeds MaxCapacity")
	}
	n := uint64(2)
	for n < uint64(capacity) {
		n <<= 1
	}
	return &Ring[T]{mask: n - 1, buf: make([]T, n)}
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of buffered elements. It is an instantaneous
// snapshot and may be stale by the time it returns.
func (r *Ring[T]) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// TryPush appends v and reports success. On a full ring it increments the
// drop counter and returns false without blocking.
//
//kml:hotpath
func (r *Ring[T]) TryPush(v T) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() >= uint64(len(r.buf)) {
		r.dropped.Add(1)
		return false
	}
	r.buf[tail&r.mask] = v
	// Release-store: the buffer write must be visible before the index.
	r.tail.Store(tail + 1)
	return true
}

// PopBatch pops up to len(dst) elements into dst and returns the count.
// Batching amortizes the atomic operations on the consumer side.
//
//kml:hotpath
func (r *Ring[T]) PopBatch(dst []T) int {
	head := r.head.Load()
	tail := r.tail.Load()
	n := int(tail - head)
	if n > len(dst) {
		n = len(dst)
	}
	if n == 0 {
		return 0
	}
	var zero T
	for i := 0; i < n; i++ {
		idx := (head + uint64(i)) & r.mask
		dst[i] = r.buf[idx]
		r.buf[idx] = zero
	}
	r.head.Store(head + uint64(n))
	return n
}

// Dropped returns the number of samples discarded because the ring was full.
func (r *Ring[T]) Dropped() uint64 { return r.dropped.Load() }
