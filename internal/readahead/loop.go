package readahead

import (
	"sync/atomic"
	"time"

	"repro/internal/features"
	"repro/internal/ringbuf"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ringCapacity is the collection ring's size in records.
const ringCapacity = 1 << 16

// drainBatch is the drain scratch's size in records: the most a single
// consume call sees.
const drainBatch = 256

// loop is the collect → window half of the readahead application that
// Tuner and FileTuner share: the inline tracepoint hook pushes records
// onto a lock-free ring, and every MaybeTick drains the ring into the
// owner's windows and asks whether a decision window has elapsed.
type loop struct {
	ring *ringbuf.Ring[features.Record]
	// batch is the one drain scratch; consume sees batch[:n], valid only
	// for the call.
	batch     []features.Record
	consume   func([]features.Record)
	collected atomic.Uint64

	window   time.Duration
	nextTick time.Duration
	started  bool
}

// init builds the collection loop in place. A zero window means 1 second
// (the paper runs inference "in a different thread context once a
// second"). consume folds each drained batch into the owner's windows.
func (l *loop) init(window time.Duration, consume func([]features.Record)) {
	if window == 0 {
		window = time.Second
	}
	l.ring = ringbuf.New[features.Record](ringCapacity)
	l.batch = make([]features.Record, drainBatch)
	l.consume = consume
	l.window = window
}

// recordOf is the tracepoint → feature-record mapping of the paper's data
// collection hooks (inode, page offset, time, and which tracepoint fired).
//
//kml:hotpath
func recordOf(ev trace.Event) features.Record {
	return features.Record{
		Inode:  ev.Inode,
		Offset: ev.Offset,
		Time:   ev.Time,
		Write:  ev.Point == trace.WritebackDirtyPage,
	}
}

// Hook returns the inline data-collection function to register on the
// tracer. It costs one lock-free ring push per event.
func (l *loop) Hook() trace.Hook {
	return l.collect
}

// collect is the paper's inline data-collection function (§4): it runs on
// every tracepoint firing, so it is a single struct copy and a lock-free
// ring push. A full ring drops the record (counted by the ring); an
// accepted one is counted in collected.
//
//kml:hotpath
func (l *loop) collect(ev trace.Event) {
	if l.ring.TryPush(recordOf(ev)) {
		l.collected.Add(1)
	}
}

// due drains the ring and reports whether a decision window ended at now.
// The first call arms the window; mid-window it is the drain (two atomic
// loads on an empty ring) and one compare.
func (l *loop) due(now time.Duration) bool {
	for {
		n := l.ring.PopBatch(l.batch)
		if n == 0 {
			break
		}
		l.consume(l.batch[:n])
	}
	if !l.started {
		l.started = true
		l.nextTick = now + l.window
		return false
	}
	if now < l.nextTick {
		return false
	}
	l.nextTick = now + l.window
	return true
}

// registerMetrics exposes the collection counters and ring state as
// snapshot-time gauges: readahead_pipeline_collected, _dropped (ring
// backpressure), _buffer_len (occupancy) and _buffer_cap. The callbacks
// read the atomics the hook already maintains, so exposure adds no cost
// per event.
func (l *loop) registerMetrics(reg *telemetry.Registry) {
	const prefix = "readahead_pipeline"
	reg.Func(prefix+"_collected", func() int64 { return int64(l.collected.Load()) })
	reg.Func(prefix+"_dropped", func() int64 { return int64(l.ring.Dropped()) })
	reg.Func(prefix+"_buffer_len", func() int64 { return int64(l.ring.Len()) })
	reg.Func(prefix+"_buffer_cap", func() int64 { return int64(l.ring.Cap()) })
}

// Dropped returns how many samples the collection ring discarded.
func (l *loop) Dropped() uint64 { return l.ring.Dropped() }

// Collected returns how many samples the hook accepted.
func (l *loop) Collected() uint64 { return l.collected.Load() }
