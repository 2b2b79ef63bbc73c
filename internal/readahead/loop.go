package readahead

import (
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/trace"
)

// loop is the collect → window half of the readahead application that
// Tuner and FileTuner share: the inline tracepoint hook feeds a lock-free
// pipeline, and every MaybeTick drains it into the owner's windows and
// asks whether a decision window has elapsed.
type loop struct {
	pipeline *core.Pipeline[features.Record]
	window   time.Duration
	nextTick time.Duration
	started  bool
}

// newLoop builds the collection loop. A zero window means 1 second (the
// paper runs inference "in a different thread context once a second"); a
// zero capacity means 1<<16 ring records. consume folds each drained
// batch into the owner's windows.
func newLoop(window time.Duration, capacity int, consume core.Handler[features.Record]) (loop, error) {
	if window == 0 {
		window = time.Second
	}
	if capacity == 0 {
		capacity = 1 << 16
	}
	p, err := core.NewPipeline[features.Record](
		core.Config{BufferCapacity: capacity}, consume)
	if err != nil {
		return loop{}, err
	}
	p.SetMode(core.ModeInference)
	return loop{pipeline: p, window: window}, nil
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
// ring push. The record stays on the stack — Collect's parameter is a
// concrete type, not an interface.
//
//kml:hotpath
func (l *loop) collect(ev trace.Event) {
	l.pipeline.Collect(recordOf(ev))
}

// due drains the pipeline and reports whether a decision window ended at
// now. The first call arms the window; mid-window it is the drain (two
// atomic loads on an empty ring) and one compare.
func (l *loop) due(now time.Duration) bool {
	l.pipeline.Flush()
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

// Dropped returns how many samples the collection ring discarded.
func (l *loop) Dropped() uint64 { return l.pipeline.Dropped() }

// Collected returns how many samples the hook accepted.
func (l *loop) Collected() uint64 { return l.pipeline.Collected() }
