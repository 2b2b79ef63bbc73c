// FlightRecorder: the repo's one in-memory keep-latest ring. Every
// observer that retains "the recent past" — the tuner's and the server's
// decision logs, the dtrace arena, the tsrec point ring, the online
// learner's example and outcome buffers — is a FlightRecorder. Where the
// SPSC collection ring (internal/ringbuf) drops the NEWEST sample under
// pressure (training data is fungible), a flight recorder overwrites the
// OLDEST record (the recent past is what debugging needs).
//
// Storage is a preallocated power-of-two slot slice written circularly;
// Record is one slot copy under a mutex. Records arrive on decision paths
// — once per tuner window, once per served request or drained sample —
// never on the per-event hot path, so a mutex is acceptable and makes
// every read safe from any goroutine.
//
// The cursor contract, stated once for every ring in the repo: a cursor
// is the total number of records ever written (Cursor). A reader that
// remembers one fetches only what arrived after it with ReadNewer, which
// returns (n, next, missed): records in [since, next) were either copied
// into dst (n, oldest first) or overwritten before the reader got to them
// (missed), so n + missed == next - since. A cursor ahead of the writer
// (one from another ring, or a reset) resyncs to Cursor() with n and
// missed both zero. At most len(dst) records are copied per call; loop
// until n == 0 to drain.
package telemetry

import "sync"

// MaxFlightCapacity bounds recorder sizing (the rounding loop must not
// overflow, and a million-slot observer is a wiring error).
const MaxFlightCapacity = 1 << 20

// FlightRecorder retains the most recent records written into it.
type FlightRecorder[T any] struct {
	mu    sync.Mutex
	slots []T
	mask  uint64
	w     uint64 // total records ever written
}

// NewFlightRecorder returns a recorder retaining the last `capacity`
// records, rounded up to a power of two. It panics on a non-positive or
// excessive capacity — a wiring error, not a runtime condition.
func NewFlightRecorder[T any](capacity int) *FlightRecorder[T] {
	if capacity <= 0 || capacity > MaxFlightCapacity {
		panic("telemetry: flight recorder capacity out of range")
	}
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &FlightRecorder[T]{slots: make([]T, c), mask: uint64(c - 1)}
}

// Record copies *v into the next slot, overwriting the oldest record when
// full. The pointer is not retained.
//
//kml:hotpath
func (f *FlightRecorder[T]) Record(v *T) {
	f.mu.Lock()
	f.slots[f.w&f.mask] = *v
	f.w++
	f.mu.Unlock()
}

// Cursor returns the write cursor: the total number of records ever
// written.
//
//kml:hotpath
func (f *FlightRecorder[T]) Cursor() uint64 {
	f.mu.Lock()
	w := f.w
	f.mu.Unlock()
	return w
}

// ReadNewer copies records written after cursor `since` into dst, oldest
// first, under the cursor contract in the file comment. dst is
// caller-owned, so an incremental reader polls without allocating.
//
//kml:hotpath
func (f *FlightRecorder[T]) ReadNewer(since uint64, dst []T) (n int, next, missed uint64) {
	f.mu.Lock()
	if since > f.w {
		w := f.w
		f.mu.Unlock()
		return 0, w, 0
	}
	start := since
	if f.w > uint64(len(f.slots)) && start < f.w-uint64(len(f.slots)) {
		start = f.w - uint64(len(f.slots))
	}
	for start+uint64(n) < f.w && n < len(dst) {
		dst[n] = f.slots[(start+uint64(n))&f.mask]
		n++
	}
	f.mu.Unlock()
	return n, start + uint64(n), start - since
}

// Snapshot returns a copy of the retained records, oldest first.
func (f *FlightRecorder[T]) Snapshot() []T {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]T, f.lenLocked())
	for i := range out {
		out[i] = f.slots[(f.w-uint64(len(out))+uint64(i))&f.mask]
	}
	return out
}

// Len returns the number of retained records.
func (f *FlightRecorder[T]) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lenLocked()
}

func (f *FlightRecorder[T]) lenLocked() int {
	if f.w > uint64(len(f.slots)) {
		return len(f.slots)
	}
	return int(f.w)
}

// Cap returns the retention capacity.
//
//kml:hotpath
func (f *FlightRecorder[T]) Cap() int { return len(f.slots) }

// Evicted returns how many records have been overwritten by newer ones —
// how far back the recorder's horizon has moved.
func (f *FlightRecorder[T]) Evicted() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.w - uint64(f.lenLocked())
}
