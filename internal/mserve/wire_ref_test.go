package mserve

// The hand-written codecs every payload used before it ran on
// internal/wire, kept verbatim (renamed ref*) as the oracle for
// TestWireMatchesReference. They are the reference implementations: do
// not "fix" them.

import (
	"encoding/binary"
	"math"

	"repro/internal/dtrace"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tsrec"
)

const (
	// learnHeaderSize is the fixed part before the event list: state byte,
	// seven u64 counters, two i64 per-mille fields, u16 count.
	learnHeaderSize = 1 + 7*8 + 2*8 + 2
	// blackboxHeaderSize is the fixed part: enabled byte, five u64
	// counters, one i64 stamp, u16 path length.
	blackboxHeaderSize = 1 + 5*8 + 8 + 2
	refSpanWireSize    = 1 + 1 + 8 + 8 + 8 + 8
)

func refWireOK(t *dtrace.Trace) bool {
	if t.N < 1 || int(t.N) > dtrace.MaxTraceSpans {
		return false
	}
	for i := 0; i < int(t.N); i++ {
		s := &t.Spans[i]
		if s.Stage >= dtrace.NumStages {
			return false
		}
		if int(s.Parent) > i {
			return false
		}
	}
	return true
}

func refAppendInferReq(dst []byte, traceID uint64, feats []float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, traceID)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(feats)))
	for _, f := range feats {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

func refParseInferReq(p []byte, dst []float64) (int, uint64, error) {
	if len(p) < 10 {
		return 0, 0, ErrBadMessage
	}
	traceID := binary.LittleEndian.Uint64(p)
	n := int(binary.LittleEndian.Uint16(p[8:]))
	if n == 0 || len(p) != 10+8*n || n > len(dst) {
		return 0, 0, ErrBadMessage
	}
	for i := 0; i < n; i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[10+8*i:]))
	}
	return n, traceID, nil
}

func refAppendInferResp(dst []byte, class uint16, version uint64) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, class)
	return binary.LittleEndian.AppendUint64(dst, version)
}

func refParseInferResp(p []byte) (class uint16, version uint64, err error) {
	if len(p) != 10 {
		return 0, 0, ErrBadMessage
	}
	return binary.LittleEndian.Uint16(p), binary.LittleEndian.Uint64(p[2:]), nil
}

func refAppendBatchInferReq(dst []byte, traceID uint64, feats []float64, rows, nfeat int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, traceID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(nfeat))
	for _, f := range feats[:rows*nfeat] {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

func refParseBatchInferReq(p []byte, dst []float64) (rows, nfeat int, traceID uint64, err error) {
	if len(p) < 14 {
		return 0, 0, 0, ErrBadMessage
	}
	traceID = binary.LittleEndian.Uint64(p)
	rows = int(binary.LittleEndian.Uint32(p[8:]))
	nfeat = int(binary.LittleEndian.Uint16(p[12:]))
	if rows == 0 || nfeat == 0 || rows > MaxBatchRows {
		return 0, 0, 0, ErrBadMessage
	}
	total := rows * nfeat
	if len(p) != 14+8*total || total > len(dst) {
		return 0, 0, 0, ErrBadMessage
	}
	for i := 0; i < total; i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[14+8*i:]))
	}
	return rows, nfeat, traceID, nil
}

func refAppendBatchInferResp(dst []byte, classes []uint16, version uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(classes)))
	dst = binary.LittleEndian.AppendUint64(dst, version)
	for _, c := range classes {
		dst = binary.LittleEndian.AppendUint16(dst, c)
	}
	return dst
}

func refParseBatchInferResp(p []byte, classes []uint16) (int, uint64, error) {
	if len(p) < 12 {
		return 0, 0, ErrBadMessage
	}
	rows := int(binary.LittleEndian.Uint32(p))
	version := binary.LittleEndian.Uint64(p[4:])
	if rows > MaxBatchRows || len(p) != 12+2*rows || rows > len(classes) {
		return 0, 0, ErrBadMessage
	}
	for i := 0; i < rows; i++ {
		classes[i] = binary.LittleEndian.Uint16(p[12+2*i:])
	}
	return rows, version, nil
}

func refAppendHealthResp(dst []byte, ok bool, version uint64, inDim int) []byte {
	b := byte(0)
	if ok {
		b = 1
	}
	dst = append(dst, b)
	dst = binary.LittleEndian.AppendUint64(dst, version)
	return binary.LittleEndian.AppendUint16(dst, uint16(inDim))
}

func refParseHealthResp(p []byte) (ok bool, version uint64, inDim int, err error) {
	if len(p) != 11 {
		return false, 0, 0, ErrBadMessage
	}
	return p[0] == 1, binary.LittleEndian.Uint64(p[1:]), int(binary.LittleEndian.Uint16(p[9:])), nil
}

func refAppendMetrics(dst []byte, snap MetricsSnapshot) []byte {
	metrics := snap.Metrics
	if len(metrics) > MaxMetrics {
		metrics = metrics[:MaxMetrics]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(metrics)))
	for _, m := range metrics {
		name := m.Name
		if len(name) > MaxMetricName {
			name = name[:MaxMetricName]
		}
		if name == "" {
			name = "?"
		}
		dst = append(dst, m.Kind)
		dst = append(dst, byte(len(name)))
		dst = append(dst, name...)
		if m.Kind == MetricHistogram {
			dst = binary.LittleEndian.AppendUint64(dst, m.Hist.Sum)
			n := 0
			for _, c := range m.Hist.Buckets {
				if c != 0 {
					n++
				}
			}
			dst = append(dst, byte(n))
			for i, c := range m.Hist.Buckets {
				if c != 0 {
					dst = append(dst, byte(i))
					dst = binary.LittleEndian.AppendUint64(dst, c)
				}
			}
		} else {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Value))
		}
	}
	decisions := snap.Decisions
	if len(decisions) > MaxDecisions {
		decisions = decisions[:MaxDecisions]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(decisions)))
	for _, d := range decisions {
		dst = binary.LittleEndian.AppendUint64(dst, d.TimeNanos)
		dst = binary.LittleEndian.AppendUint64(dst, d.Version)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(d.Class))
		dst = binary.LittleEndian.AppendUint32(dst, d.Rows)
		dst = binary.LittleEndian.AppendUint32(dst, d.Sectors)
	}
	return dst
}

func refParseMetrics(p []byte) (MetricsSnapshot, error) {
	var snap MetricsSnapshot
	if len(p) < 2 {
		return snap, ErrBadMessage
	}
	nm := int(binary.LittleEndian.Uint16(p))
	if nm > MaxMetrics {
		return snap, ErrBadMessage
	}
	off := 2
	if nm > 0 {
		snap.Metrics = make([]Metric, 0, nm)
	}
	for i := 0; i < nm; i++ {
		if len(p)-off < 2 {
			return MetricsSnapshot{}, ErrBadMessage
		}
		kind := p[off]
		nameLen := int(p[off+1])
		off += 2
		if kind > MetricHistogram || nameLen == 0 || nameLen > MaxMetricName {
			return MetricsSnapshot{}, ErrBadMessage
		}
		if len(p)-off < nameLen {
			return MetricsSnapshot{}, ErrBadMessage
		}
		m := Metric{Name: string(p[off : off+nameLen]), Kind: kind}
		off += nameLen
		if kind == MetricHistogram {
			if len(p)-off < 9 {
				return MetricsSnapshot{}, ErrBadMessage
			}
			m.Hist.Sum = binary.LittleEndian.Uint64(p[off:])
			nb := int(p[off+8])
			off += 9
			if nb > telemetry.NumBuckets || len(p)-off < 9*nb {
				return MetricsSnapshot{}, ErrBadMessage
			}
			prev := -1
			for j := 0; j < nb; j++ {
				idx := int(p[off])
				count := binary.LittleEndian.Uint64(p[off+1:])
				off += 9
				if idx <= prev || idx >= telemetry.NumBuckets || count == 0 {
					return MetricsSnapshot{}, ErrBadMessage
				}
				prev = idx
				m.Hist.Buckets[idx] = count
				m.Hist.Count += count
			}
		} else {
			if len(p)-off < 8 {
				return MetricsSnapshot{}, ErrBadMessage
			}
			m.Value = int64(binary.LittleEndian.Uint64(p[off:]))
			off += 8
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	if len(p)-off < 2 {
		return MetricsSnapshot{}, ErrBadMessage
	}
	nd := int(binary.LittleEndian.Uint16(p[off:]))
	off += 2
	if nd > MaxDecisions || len(p)-off != 28*nd {
		return MetricsSnapshot{}, ErrBadMessage
	}
	if nd > 0 {
		snap.Decisions = make([]MetricsDecision, 0, nd)
	}
	for i := 0; i < nd; i++ {
		snap.Decisions = append(snap.Decisions, MetricsDecision{
			TimeNanos: binary.LittleEndian.Uint64(p[off:]),
			Version:   binary.LittleEndian.Uint64(p[off+8:]),
			Class:     int32(binary.LittleEndian.Uint32(p[off+16:])),
			Rows:      binary.LittleEndian.Uint32(p[off+20:]),
			Sectors:   binary.LittleEndian.Uint32(p[off+24:]),
		})
		off += 28
	}
	return snap, nil
}

func refAppendLearnStatus(dst []byte, st LearnStatus) []byte {
	dst = append(dst, st.State)
	for _, v := range [7]uint64{
		st.Retrains, st.Deploys, st.Rollbacks, st.Commits,
		st.TriggerFires, st.Examples, st.LastVersion,
	} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.BaselinePM))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.CanaryPM))
	events := st.Events
	if len(events) > MaxRetrainEvents {
		events = events[len(events)-MaxRetrainEvents:]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(events)))
	for _, e := range events {
		dst = binary.LittleEndian.AppendUint64(dst, e.TimeNanos)
		dst = binary.LittleEndian.AppendUint64(dst, e.Version)
		dst = binary.LittleEndian.AppendUint64(dst, e.DurationNanos)
		dst = binary.LittleEndian.AppendUint32(dst, e.Examples)
		dst = append(dst, e.Outcome, 0, 0, 0)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.BaselinePM))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.CanaryPM))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.MaxShiftMZ))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.ChurnPM))
	}
	return dst
}

func refParseLearnStatus(p []byte) (LearnStatus, error) {
	var st LearnStatus
	if len(p) < learnHeaderSize {
		return st, ErrBadMessage
	}
	st.State = p[0]
	if st.State > LearnRolledBack {
		return LearnStatus{}, ErrBadMessage
	}
	off := 1
	for _, dst := range [7]*uint64{
		&st.Retrains, &st.Deploys, &st.Rollbacks, &st.Commits,
		&st.TriggerFires, &st.Examples, &st.LastVersion,
	} {
		*dst = binary.LittleEndian.Uint64(p[off:])
		off += 8
	}
	st.BaselinePM = int64(binary.LittleEndian.Uint64(p[off:]))
	st.CanaryPM = int64(binary.LittleEndian.Uint64(p[off+8:]))
	off += 16
	n := int(binary.LittleEndian.Uint16(p[off:]))
	off += 2
	if n > MaxRetrainEvents || len(p)-off != retrainEventSize*n {
		return LearnStatus{}, ErrBadMessage
	}
	if n > 0 {
		st.Events = make([]RetrainEvent, 0, n)
	}
	for i := 0; i < n; i++ {
		var e RetrainEvent
		e.TimeNanos = binary.LittleEndian.Uint64(p[off:])
		e.Version = binary.LittleEndian.Uint64(p[off+8:])
		e.DurationNanos = binary.LittleEndian.Uint64(p[off+16:])
		e.Examples = binary.LittleEndian.Uint32(p[off+24:])
		e.Outcome = p[off+28]
		if e.Outcome > RetrainFailed || p[off+29] != 0 || p[off+30] != 0 || p[off+31] != 0 {
			return LearnStatus{}, ErrBadMessage
		}
		e.BaselinePM = int64(binary.LittleEndian.Uint64(p[off+32:]))
		e.CanaryPM = int64(binary.LittleEndian.Uint64(p[off+40:]))
		e.MaxShiftMZ = int64(binary.LittleEndian.Uint64(p[off+48:]))
		e.ChurnPM = int64(binary.LittleEndian.Uint64(p[off+56:]))
		off += retrainEventSize
		st.Events = append(st.Events, e)
	}
	return st, nil
}

func refAppendBlackboxReq(dst []byte, op uint8) []byte {
	return append(dst, op)
}

func refParseBlackboxReq(p []byte) (uint8, error) {
	if len(p) != 1 || p[0] > BlackboxSync {
		return 0, ErrBadMessage
	}
	return p[0], nil
}

func refAppendBlackboxStatus(dst []byte, st BlackboxStatus) []byte {
	b := byte(0)
	if st.Enabled {
		b = 1
	}
	dst = append(dst, b)
	for _, v := range [5]uint64{st.Records, st.Dropped, st.Flushes, st.RingBytes, st.TornAtOpen} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.LastFlushNanos))
	path := st.Path
	if len(path) > MaxBlackboxPath {
		path = path[:MaxBlackboxPath]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(path)))
	return append(dst, path...)
}

func refParseBlackboxStatus(p []byte) (BlackboxStatus, error) {
	var st BlackboxStatus
	if len(p) < blackboxHeaderSize || p[0] > 1 {
		return st, ErrBadMessage
	}
	st.Enabled = p[0] == 1
	off := 1
	for _, dst := range [5]*uint64{&st.Records, &st.Dropped, &st.Flushes, &st.RingBytes, &st.TornAtOpen} {
		*dst = binary.LittleEndian.Uint64(p[off:])
		off += 8
	}
	st.LastFlushNanos = int64(binary.LittleEndian.Uint64(p[off:]))
	off += 8
	n := int(binary.LittleEndian.Uint16(p[off:]))
	off += 2
	if n > MaxBlackboxPath || len(p)-off != n {
		return BlackboxStatus{}, ErrBadMessage
	}
	st.Path = string(p[off:])
	return st, nil
}

func refAppendTraces(dst []byte, traces []dtrace.Trace) []byte {
	ok := make([]int, 0, len(traces))
	for i := range traces {
		if refWireOK(&traces[i]) {
			ok = append(ok, i)
		}
	}
	if len(ok) > dtrace.MaxWireTraces {
		ok = ok[len(ok)-dtrace.MaxWireTraces:]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ok)))
	for _, i := range ok {
		t := &traces[i]
		dst = binary.LittleEndian.AppendUint64(dst, uint64(t.ID))
		dst = append(dst, t.N)
		for j := 0; j < int(t.N); j++ {
			s := &t.Spans[j]
			dst = append(dst, byte(s.Stage), s.Parent)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Value))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Aux))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Start))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(s.End))
		}
	}
	return dst
}

func refParseTraces(b []byte) ([]dtrace.Trace, error) {
	if len(b) < 2 {
		return nil, dtrace.ErrBadTraceWire
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if n > dtrace.MaxWireTraces {
		return nil, dtrace.ErrBadTraceWire
	}
	out := make([]dtrace.Trace, n)
	for i := 0; i < n; i++ {
		if len(b) < 9 {
			return nil, dtrace.ErrBadTraceWire
		}
		t := &out[i]
		t.ID = dtrace.TraceID(binary.LittleEndian.Uint64(b))
		t.N = b[8]
		b = b[9:]
		if t.N < 1 || int(t.N) > dtrace.MaxTraceSpans {
			return nil, dtrace.ErrBadTraceWire
		}
		for j := 0; j < int(t.N); j++ {
			if len(b) < refSpanWireSize {
				return nil, dtrace.ErrBadTraceWire
			}
			s := &t.Spans[j]
			s.Stage = dtrace.Stage(b[0])
			s.Parent = b[1]
			if s.Stage >= dtrace.NumStages || int(s.Parent) > j {
				return nil, dtrace.ErrBadTraceWire
			}
			s.Value = int64(binary.LittleEndian.Uint64(b[2:]))
			s.Aux = int64(binary.LittleEndian.Uint64(b[10:]))
			s.Start = int64(binary.LittleEndian.Uint64(b[18:]))
			s.End = int64(binary.LittleEndian.Uint64(b[26:]))
			b = b[refSpanWireSize:]
		}
	}
	if len(b) != 0 {
		return nil, dtrace.ErrBadTraceWire
	}
	return out, nil
}

func refAppendSeries(dst []byte, s tsrec.Series) []byte {
	counters, hists := s.Counters, s.Hists
	if len(counters) > tsrec.MaxCounters {
		counters = counters[:tsrec.MaxCounters]
	}
	if len(hists) > tsrec.MaxHists {
		hists = hists[:tsrec.MaxHists]
	}
	points := s.Points
	if len(points) > tsrec.MaxWirePoints {
		points = points[len(points)-tsrec.MaxWirePoints:]
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.IntervalNanos))
	dst = append(dst, byte(len(counters)))
	for _, name := range counters {
		dst = refAppendName(dst, name)
	}
	dst = append(dst, byte(len(hists)))
	for _, name := range hists {
		dst = refAppendName(dst, name)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(points)))
	for i := range points {
		p := &points[i]
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.TimeNanos))
		for c := 0; c < len(counters); c++ {
			dst = binary.LittleEndian.AppendUint64(dst, p.Deltas[c])
		}
		for h := 0; h < len(hists); h++ {
			dst = binary.LittleEndian.AppendUint64(dst, p.Counts[h])
			dst = binary.LittleEndian.AppendUint64(dst, uint64(p.P50[h]))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(p.P95[h]))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(p.P99[h]))
		}
	}
	return dst
}

func refAppendName(dst []byte, name string) []byte {
	if name == "" {
		name = "?"
	}
	if len(name) > tsrec.MaxSeriesName {
		name = name[:tsrec.MaxSeriesName]
	}
	dst = append(dst, byte(len(name)))
	return append(dst, name...)
}

func refParseSeries(p []byte) (tsrec.Series, error) {
	var s tsrec.Series
	if len(p) < 12 {
		return s, tsrec.ErrBadSeries
	}
	s.IntervalNanos = int64(binary.LittleEndian.Uint64(p))
	off := 8
	var err error
	s.Counters, off, err = refParseNames(p, off, tsrec.MaxCounters)
	if err != nil {
		return tsrec.Series{}, err
	}
	s.Hists, off, err = refParseNames(p, off, tsrec.MaxHists)
	if err != nil {
		return tsrec.Series{}, err
	}
	if len(p)-off < 2 {
		return tsrec.Series{}, tsrec.ErrBadSeries
	}
	npoints := int(binary.LittleEndian.Uint16(p[off:]))
	off += 2
	if npoints > tsrec.MaxWirePoints {
		return tsrec.Series{}, tsrec.ErrBadSeries
	}
	ptBytes := 8 * (1 + len(s.Counters) + 4*len(s.Hists))
	if len(p)-off != npoints*ptBytes {
		return tsrec.Series{}, tsrec.ErrBadSeries
	}
	s.Points = make([]tsrec.Point, npoints)
	for i := range s.Points {
		pt := &s.Points[i]
		pt.TimeNanos = int64(binary.LittleEndian.Uint64(p[off:]))
		off += 8
		for c := 0; c < len(s.Counters); c++ {
			pt.Deltas[c] = binary.LittleEndian.Uint64(p[off:])
			off += 8
		}
		for h := 0; h < len(s.Hists); h++ {
			pt.Counts[h] = binary.LittleEndian.Uint64(p[off:])
			pt.P50[h] = int64(binary.LittleEndian.Uint64(p[off+8:]))
			pt.P95[h] = int64(binary.LittleEndian.Uint64(p[off+16:]))
			pt.P99[h] = int64(binary.LittleEndian.Uint64(p[off+24:]))
			off += 32
		}
	}
	return s, nil
}

func refParseNames(p []byte, off, max int) ([]string, int, error) {
	if off >= len(p) {
		return nil, 0, tsrec.ErrBadSeries
	}
	n := int(p[off])
	off++
	if n > max {
		return nil, 0, tsrec.ErrBadSeries
	}
	names := make([]string, n)
	for i := 0; i < n; i++ {
		if off >= len(p) {
			return nil, 0, tsrec.ErrBadSeries
		}
		l := int(p[off])
		off++
		if l < 1 || l > tsrec.MaxSeriesName || len(p)-off < l {
			return nil, 0, tsrec.ErrBadSeries
		}
		names[i] = string(p[off : off+l])
		off += l
	}
	return names, off, nil
}
