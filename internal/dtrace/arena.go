// Arena: bounded keep-latest retention of completed traces, plus the
// TraceID mint. Retention is the repo's one keep-latest ring
// (telemetry.FlightRecorder) — Record is one slot copy of the trace by
// pointer, and Cursor/ReadNewer/Snapshot follow its cursor contract — so
// this file owns only the ID mint.
package dtrace

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// Arena retains the most recent completed traces and mints TraceIDs.
type Arena struct {
	*telemetry.FlightRecorder[Trace]
	next atomic.Uint64
}

// NewArena returns an arena retaining the last `capacity` traces
// (rounded up to a power of two). It panics on a non-positive or
// excessive capacity — a wiring error, not a runtime condition.
func NewArena(capacity int) *Arena {
	return &Arena{FlightRecorder: telemetry.NewFlightRecorder[Trace](capacity)}
}

// NextID mints a fresh trace ID. IDs start at 1; 0 never names a trace.
//
//kml:hotpath
func (a *Arena) NextID() TraceID { return TraceID(a.next.Add(1)) }
