package mserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/dtrace"
	"repro/internal/telemetry"
)

// dtraceSeedTrace builds a small well-formed trace for fuzz seeding.
func dtraceSeedTrace() dtrace.Trace {
	var b dtrace.Builder
	b.Start(9, 100)
	i := b.Begin(dtrace.StageParse, 0, 110)
	b.End(i, 120)
	b.SetValue(i, 34)
	i = b.Begin(dtrace.StageInfer, 0, 130)
	b.End(i, 150)
	return *b.Finish(160)
}

// FuzzFrameDecode drives the wire-frame decoder with hostile input. The
// decoder sits on the network boundary, so it faces exactly the bug class
// the PR 1 WAL fuzzing caught in the uvarint path: lengths that lie,
// truncated headers, version skew, and corrupt checksums must all return
// an error without panicking, over-reading, or sizing an allocation from
// an unvalidated header. On success, re-encoding must reproduce the
// consumed bytes exactly (the format has one canonical encoding).
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, MsgInfer, nil))
	f.Add(AppendFrame(nil, MsgBatchInfer, bytes.Repeat([]byte{7}, 100)))
	f.Add(AppendFrame(nil, MsgError, []byte("boom")))
	// Two frames back to back: the stream case.
	f.Add(AppendFrame(AppendFrame(nil, MsgHealth, nil), MsgStats, []byte{1, 2, 3}))
	// A traces frame carrying a canonical dtrace payload.
	tb := dtraceSeedTrace()
	f.Add(AppendFrame(nil, MsgTraces, dtrace.AppendTraces(nil, []dtrace.Trace{tb})))
	// Truncated header and truncated payload.
	f.Add([]byte{'K', 'M', 1})
	f.Add(AppendFrame(nil, MsgInfer, []byte("abc"))[:HeaderSize+1])
	// Version skew and oversized length.
	f.Add([]byte{'K', 'M', 99, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	hostile := AppendFrame(nil, MsgInfer, nil)
	binary.LittleEndian.PutUint32(hostile[4:8], ^uint32(0))
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, b []byte) {
		// Stream-decode until error; the loop must terminate (progress on
		// every success) and never panic.
		rest := b
		for i := 0; ; i++ {
			typ, payload, next, err := DecodeFrame(rest)
			if err != nil {
				// A failed decode must not consume input.
				if !bytes.Equal(next, rest) {
					t.Fatalf("failed decode consumed input")
				}
				break
			}
			if len(payload) > MaxPayload {
				t.Fatalf("payload %d exceeds MaxPayload", len(payload))
			}
			consumed := len(rest) - len(next)
			if consumed < HeaderSize {
				t.Fatalf("decode made no progress (consumed %d)", consumed)
			}
			re := AppendFrame(nil, typ, payload)
			if !bytes.Equal(re, rest[:consumed]) {
				t.Fatalf("re-encode mismatch on frame %d", i)
			}
			rest = next
		}

		// Hostile payloads through the message decoders: bounded scratch,
		// so a lying header must error instead of indexing out of range.
		var feats [64]float64
		var classes [64]uint16
		_ = PeekTraceID(b)
		_, _, _ = ParseInferReq(b, feats[:])
		_, _, _, _ = ParseBatchInferReq(b, feats[:])
		_, _, _ = ParseInferResp(b)
		_, _, _ = ParseBatchInferResp(b, classes[:])
		_, _, _, _ = ParseDeployReq(b)
		_, _ = ParseVersionResp(b)
		_, _ = ParseStats(b)
		_, _, _, _ = ParseHealthResp(b)
	})
}

// FuzzFrameStream pins the connection read loop to the frame decoder: for
// any byte stream delivered in any chunking (read sizes cycled from cuts),
// frameReader yields exactly the frames repeated DecodeFrame yields and
// fails at the same frame — with DecodeFrame's error, or, where
// DecodeFrame reports a short frame, with io.EOF at a frame boundary and
// io.ErrUnexpectedEOF inside a frame. Its buffer never grows past one
// maximal frame.
func FuzzFrameStream(f *testing.F) {
	two := AppendFrame(AppendFrame(nil, MsgHealth, nil), MsgStats, []byte{1, 2, 3})
	f.Add([]byte{}, []byte{})
	f.Add(two, []byte{})
	f.Add(two, []byte{0})
	f.Add(two, []byte{4, 11, 1})
	f.Add(AppendFrame(two, MsgDeploy, bytes.Repeat([]byte{7}, 5000)), []byte{200, 3})
	f.Add(two[:len(two)-1], []byte{5})
	hostile := AppendFrame(nil, MsgInfer, nil)
	binary.LittleEndian.PutUint32(hostile[4:8], ^uint32(0))
	f.Add(append(AppendFrame(nil, MsgInfer, []byte("ok")), hostile...), []byte{1})

	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		type frame struct {
			typ     MsgType
			payload []byte
		}
		var want []frame
		rest := stream
		var wantErr error
		for {
			typ, payload, next, err := DecodeFrame(rest)
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, frame{typ, payload})
			rest = next
		}
		if errors.Is(wantErr, ErrShortFrame) {
			wantErr = io.ErrUnexpectedEOF
			if len(rest) == 0 {
				wantErr = io.EOF
			}
		}
		sizes := make([]int, len(cuts))
		for i, c := range cuts {
			sizes[i] = int(c) + 1
		}
		var fr frameReader
		src := &chunkReader{b: stream, sizes: sizes}
		for i := 0; ; i++ {
			h, payload, err := fr.next(src)
			if err != nil {
				if i != len(want) {
					t.Fatalf("reader failed at frame %d with %v, DecodeFrame at %d", i, err, len(want))
				}
				if !errors.Is(err, wantErr) {
					t.Fatalf("reader error %v, want %v", err, wantErr)
				}
				break
			}
			if i >= len(want) {
				t.Fatalf("reader yielded frame %d, DecodeFrame stopped at %d with %v", i, len(want), wantErr)
			}
			if h.Type != want[i].typ || !bytes.Equal(payload, want[i].payload) {
				t.Fatalf("frame %d differs from DecodeFrame's", i)
			}
		}
		if cap(fr.buf) > HeaderSize+MaxPayload {
			t.Fatalf("buffer grew to %d bytes", cap(fr.buf))
		}
	})
}

// FuzzMetricsDecode drives the MsgMetrics parser with hostile input and
// pins the canonical-encoding invariant: any payload the parser accepts
// must re-encode to exactly the consumed bytes, and no input may panic,
// over-read, or size an allocation from an unvalidated count.
func FuzzMetricsDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendMetrics(nil, MetricsSnapshot{}))
	f.Add(AppendMetrics(nil, MetricsSnapshot{
		Metrics: []Metric{
			{Name: "c", Kind: MetricCounter, Value: 7},
			{Name: "g", Kind: MetricGauge, Value: -7},
		},
		Decisions: []MetricsDecision{{TimeNanos: 1, Version: 2, Class: -1, Rows: 3, Sectors: 4}},
	}))
	var h telemetry.Histogram
	for _, ns := range []int64{0, 1, 500, 1 << 40} {
		h.Observe(ns)
	}
	f.Add(AppendMetrics(nil, MetricsSnapshot{Metrics: []Metric{
		{Name: "h", Kind: MetricHistogram, Hist: h.Snapshot()},
		{Name: "empty", Kind: MetricHistogram},
	}}))
	f.Add([]byte{0xFF, 0xFF})                               // lying metric count
	f.Add(append(AppendMetrics(nil, MetricsSnapshot{}), 1)) // trailing byte

	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := ParseMetrics(b)
		if err != nil {
			return
		}
		if len(snap.Metrics) > MaxMetrics || len(snap.Decisions) > MaxDecisions {
			t.Fatalf("parsed snapshot exceeds wire limits: %d metrics, %d decisions",
				len(snap.Metrics), len(snap.Decisions))
		}
		for _, m := range snap.Metrics {
			if m.Kind == MetricHistogram {
				var sum uint64
				for _, c := range m.Hist.Buckets {
					sum += c
				}
				if sum != m.Hist.Count {
					t.Fatalf("histogram %q count %d != bucket sum %d", m.Name, m.Hist.Count, sum)
				}
			}
		}
		re := AppendMetrics(nil, snap)
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted payload is not canonical:\n in: %x\nout: %x", b, re)
		}
	})
}

// FuzzLearnStatusDecode drives the MsgLearnStatus parser with hostile
// input and pins the same canonical-encoding invariant as the other wire
// decoders: Append(Parse(b)) == b for every accepted b, and no input may
// panic, over-read, or size an allocation from an unvalidated count.
func FuzzLearnStatusDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendLearnStatus(nil, LearnStatus{BaselinePM: -1, CanaryPM: -1}))
	f.Add(AppendLearnStatus(nil, LearnStatus{
		State:    LearnCanary,
		Retrains: 3, Deploys: 4, Rollbacks: 1, Commits: 2,
		TriggerFires: 5, Examples: 256, LastVersion: 9,
		BaselinePM: 700, CanaryPM: 650,
		Events: []RetrainEvent{
			{TimeNanos: 1, Version: 8, DurationNanos: 2_000_000, Examples: 128,
				Outcome: RetrainCommitted, BaselinePM: 600, CanaryPM: 700,
				MaxShiftMZ: 2500, ChurnPM: 120},
			{TimeNanos: 2, Version: 9, Outcome: RetrainPending,
				BaselinePM: -1, CanaryPM: -1},
		},
	}))
	f.Add([]byte{6})                                        // out-of-range state
	f.Add(append(AppendLearnStatus(nil, LearnStatus{}), 1)) // trailing byte
	lying := AppendLearnStatus(nil, LearnStatus{})
	lying[len(lying)-2] = 0xFF // event count with no event bytes
	f.Add(lying)

	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := ParseLearnStatus(b)
		if err != nil {
			return
		}
		if len(st.Events) > MaxRetrainEvents {
			t.Fatalf("parsed status exceeds event cap: %d", len(st.Events))
		}
		if st.State > LearnRolledBack {
			t.Fatalf("parsed out-of-range state %d", st.State)
		}
		re := AppendLearnStatus(nil, st)
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted payload is not canonical:\n in: %x\nout: %x", b, re)
		}
	})
}

// FuzzBlackboxStatusDecode drives the MsgBlackbox status parser with
// hostile input under the same contract: Append(Parse(b)) == b for
// every accepted b, no panic, no over-read, no count-sized allocation
// before validation.
func FuzzBlackboxStatusDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendBlackboxStatus(nil, BlackboxStatus{}))
	f.Add(AppendBlackboxStatus(nil, BlackboxStatus{
		Enabled: true, Records: 1000, Dropped: 1, Flushes: 40,
		RingBytes: 4 << 20, TornAtOpen: 1,
		LastFlushNanos: 1700000000000000000, Path: "/var/run/kml/bb.bin",
	}))
	f.Add([]byte{2})                                              // out-of-range enabled
	f.Add(append(AppendBlackboxStatus(nil, BlackboxStatus{}), 9)) // trailing byte
	lying := AppendBlackboxStatus(nil, BlackboxStatus{Path: "x"})
	lying[blackboxHeaderSize-2] = 0xFF // path length with no path bytes
	f.Add(lying)

	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := ParseBlackboxStatus(b)
		if err != nil {
			return
		}
		if len(st.Path) > MaxBlackboxPath {
			t.Fatalf("parsed status exceeds path cap: %d", len(st.Path))
		}
		re := AppendBlackboxStatus(nil, st)
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted payload is not canonical:\n in: %x\nout: %x", b, re)
		}
	})
}
