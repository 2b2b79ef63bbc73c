package mserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/dtrace"
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
		_, _, _ = ParseInferReq(b, feats[:])
		_, _, _, _ = ParseBatchInferReq(b, feats[:])
		_, _, _ = ParseInferResp(b)
		_, _, _ = ParseBatchInferResp(b, classes[:])
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
	f.Add(AppendFrame(two, MsgBatchInfer, bytes.Repeat([]byte{7}, 5000)), []byte{200, 3})
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

// FuzzWireCanonical is the one canonical-form property for every payload
// that runs on internal/wire: the first input byte selects the message
// (wireCodecs order), and the rest must either be rejected or decode to a
// value that satisfies the message's invariants and re-encodes to exactly
// those bytes. No input may panic, over-read, or size an allocation from
// an unvalidated count.
func FuzzWireCanonical(f *testing.F) {
	codecs := wireCodecs()
	for i, m := range codecs {
		for _, seed := range m.seeds {
			f.Add(append([]byte{byte(i)}, seed...))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		checkCanonical(t, codecs[int(b[0])%len(codecs)], b[1:])
	})
}

// FuzzMetricsDecode, FuzzLearnStatusDecode and FuzzBlackboxStatusDecode
// run FuzzWireCanonical's property on one message each, so a long
// campaign can aim at a single decoder.
func FuzzMetricsDecode(f *testing.F)        { fuzzOneCodec(f, "Metrics") }
func FuzzLearnStatusDecode(f *testing.F)    { fuzzOneCodec(f, "LearnStatus") }
func FuzzBlackboxStatusDecode(f *testing.F) { fuzzOneCodec(f, "BlackboxStatus") }

func fuzzOneCodec(f *testing.F, name string) {
	for _, m := range wireCodecs() {
		if m.name != name {
			continue
		}
		for _, seed := range m.seeds {
			f.Add(seed)
		}
		f.Fuzz(func(t *testing.T, b []byte) { checkCanonical(t, m, b) })
		return
	}
	f.Fatalf("no wire codec named %q", name)
}

// checkCanonical is the property: b is rejected, or it decodes to a value
// that satisfies the message's invariants and re-encodes to exactly b.
func checkCanonical(t *testing.T, m wireCodec, b []byte) {
	v, err := m.parse(b)
	if err != nil {
		return
	}
	if err := m.check(v); err != nil {
		t.Fatalf("%s: %v", m.name, err)
	}
	if re := m.append(v); !bytes.Equal(re, b) {
		t.Fatalf("%s: accepted payload is not canonical:\n in: %x\nout: %x", m.name, b, re)
	}
}
