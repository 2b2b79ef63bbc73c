// The sampler: the bridge from the in-memory observability state to
// the on-disk ring. Each Capture incrementally drains what changed
// since the last one — new time-series points and new decision traces
// through the keep-latest rings' cursor API (nothing is re-persisted;
// whatever the rings overwrote before a drain is counted in
// blackbox_points_missed / blackbox_traces_missed on the server
// registry), the learner status only when its state machine moved, and
// a full metrics snapshot every capture (it is the drift-gauge
// trajectory a postmortem plots, and cheap relative to the interval).
// All scratch buffers are owned by the sampler and reused, so a capture
// allocates only what the registry snapshot itself allocates.
//
// Capture serializes itself: the recorder's flusher, an on-demand sync
// and a crash hook may all call it at once.
package blackbox

import (
	"sync"

	"repro/internal/dtrace"
	"repro/internal/mserve"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tsrec"
)

// Batch sizes per drained record. A full trace batch is ~18 KB on the
// wire, a full point batch ~100 KB — both far under MaxRecordPayload.
const (
	samplerTraceBatch = 64
	samplerPointBatch = 256
)

// Sampler captures one mserve.Server's observability state into a
// Recorder.
type Sampler struct {
	bb  *Recorder
	srv *mserve.Server

	mu        sync.Mutex // guards everything below
	scratch   []byte
	tsBuf     []tsrec.Point
	trBuf     []dtrace.Trace
	tsCursor  uint64
	trCursor  uint64
	tsMissed  *telemetry.Counter // blackbox_points_missed
	trMissed  *telemetry.Counter // blackbox_traces_missed
	haveLearn bool
	lastLearn mserve.LearnStatus
}

// NewSampler wires a sampler between srv and bb. Cursors start at zero,
// so the first Capture persists everything the server has retained so
// far — history from before the black box was attached is not lost.
func NewSampler(bb *Recorder, srv *mserve.Server) *Sampler {
	reg := srv.MetricsRegistry()
	return &Sampler{
		bb:       bb,
		srv:      srv,
		tsBuf:    make([]tsrec.Point, samplerPointBatch),
		trBuf:    make([]dtrace.Trace, samplerTraceBatch),
		tsMissed: reg.Counter("blackbox_points_missed"),
		trMissed: reg.Counter("blackbox_traces_missed"),
	}
}

// Capture drains everything new since the previous capture into the
// recorder, stamped nowNanos. Durability still requires a flush; the
// recorder's flusher calls Capture immediately before each one.
func (s *Sampler) Capture(nowNanos int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// New time-series points since the last capture.
	if rec := s.srv.TimeSeriesRecorder(); rec != nil {
		for {
			n, cur, missed := rec.ReadNewer(s.tsCursor, s.tsBuf)
			s.tsCursor = cur
			s.tsMissed.Add(missed)
			if n == 0 {
				break
			}
			s.scratch = tsrec.AppendSeries(s.scratch[:0], tsrec.Series{
				IntervalNanos: rec.Interval(),
				Counters:      rec.CounterNames(),
				Hists:         rec.HistNames(),
				Points:        s.tsBuf[:n],
			})
			s.bb.Record(KindTimeSeries, nowNanos, s.scratch)
			if n < len(s.tsBuf) {
				break
			}
		}
	}

	// New decision traces since the last capture.
	if arena := s.srv.TraceArena(); arena != nil {
		for {
			n, cur, missed := arena.ReadNewer(s.trCursor, s.trBuf)
			s.trCursor = cur
			s.trMissed.Add(missed)
			if n == 0 {
				break
			}
			s.scratch = dtrace.AppendTraces(s.scratch[:0], s.trBuf[:n])
			s.bb.Record(KindTraces, nowNanos, s.scratch)
			if n < len(s.trBuf) {
				break
			}
		}
	}

	// Full metrics snapshot: counters (including this capture's missed
	// counts), gauges (drift milli-z), latency histograms, recent
	// flight-recorder decisions.
	s.scratch = mserve.AppendMetrics(s.scratch[:0], s.srv.Metrics())
	s.bb.Record(KindMetrics, nowNanos, s.scratch)

	// Learner status, only on transitions: the state machine moves
	// orders of magnitude slower than the capture interval, and the
	// postmortem wants the sequence of moves, not a heartbeat.
	st := s.srv.LearnStatus()
	if !s.haveLearn || learnMoved(&s.lastLearn, &st) {
		s.haveLearn = true
		s.scratch = mserve.AppendLearnStatus(s.scratch[:0], st)
		if s.bb.Record(KindLearn, nowNanos, s.scratch) {
			s.lastLearn = st
			s.lastLearn.Events = nil // compared fields only; do not retain
		}
	}
}

// learnMoved reports whether the learner's externally visible position
// changed: any lifecycle counter, the state, or the deployed version.
func learnMoved(a, b *mserve.LearnStatus) bool {
	return a.State != b.State ||
		a.Retrains != b.Retrains ||
		a.Deploys != b.Deploys ||
		a.Rollbacks != b.Rollbacks ||
		a.Commits != b.Commits ||
		a.TriggerFires != b.TriggerFires ||
		a.LastVersion != b.LastVersion
}
