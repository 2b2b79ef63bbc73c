// Package trace is the tracepoint layer standing in for the LTTng-visible
// kernel tracepoints the paper collects training data from (§4: "we used
// built-in kernel tracepoints (e.g., add_to_page_cache,
// writeback_dirty_page). These tracepoints track file-backed pages.").
//
// The simulated memory-management subsystem (internal/pagecache) emits
// events through a Tracer; KML applications register hook functions that
// run inline on the I/O path, so hooks must be cheap and non-blocking —
// in the readahead application a hook is a single lock-free ring push.
package trace

import (
	"sync/atomic"
	"time"
)

// Point identifies a tracepoint. The names mirror the kernel tracepoints
// the paper instruments.
type Point uint8

// Tracepoints emitted by the simulated memory-management subsystem.
const (
	// AddToPageCache fires when a file-backed page is inserted into the
	// page cache (reads, readahead, and write allocations).
	AddToPageCache Point = iota
	// WritebackDirtyPage fires when a dirty page is written back to the
	// device.
	WritebackDirtyPage
)

// String returns the kernel-style tracepoint name.
func (p Point) String() string {
	switch p {
	case AddToPageCache:
		return "add_to_page_cache"
	case WritebackDirtyPage:
		return "writeback_dirty_page"
	default:
		return "unknown"
	}
}

// Event is one tracepoint firing. It carries exactly what the paper's
// readahead data-collection functions record: "the inode number, page
// offset of the files that are accessed, and time difference from the
// beginning of the execution of the KML kernel module".
type Event struct {
	Point  Point
	Inode  uint64
	Offset int64 // page index within the file
	Time   time.Duration
}

// Hook is an inline data-collection function (§4). It runs on the
// simulated I/O path and must not block.
type Hook func(Event)

// Tracer dispatches events to registered hooks and counts them. The
// count is atomic: emitters run on the I/O path while observers read it
// from other goroutines, so a plain uint64 add would be a data race.
// Hooks must all be registered before the first Emit.
type Tracer struct {
	hooks   []Hook
	enabled atomic.Bool
	total   atomic.Uint64
}

// New returns an enabled tracer with no hooks.
func New() *Tracer {
	t := &Tracer{}
	t.enabled.Store(true)
	return t
}

// Register adds a hook. Hooks cannot be removed individually; a KML module
// unloading corresponds to SetEnabled(false).
func (t *Tracer) Register(h Hook) {
	if h == nil {
		panic("trace: nil hook")
	}
	t.hooks = append(t.hooks, h)
}

// SetEnabled turns event dispatch on or off (events are counted only
// while enabled).
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Emit dispatches one event to all hooks. With no hooks registered (or
// disabled) it is nearly free, like a disabled kernel tracepoint. It runs
// inline on the simulated I/O path, so it must not allocate; the count
// update is one atomic add, safe against concurrent Total readers.
//
//kml:hotpath
func (t *Tracer) Emit(ev Event) {
	if !t.enabled.Load() {
		return
	}
	t.total.Add(1)
	for _, h := range t.hooks {
		h(ev)
	}
}

// Total returns the number of events emitted across all tracepoints.
// It is safe to call while other goroutines emit.
func (t *Tracer) Total() uint64 { return t.total.Load() }
