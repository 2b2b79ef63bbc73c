package mserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 1000)}
	var stream []byte
	for i, p := range payloads {
		stream = AppendFrame(stream, MsgType(i+1), p)
	}
	rest := stream
	for i, p := range payloads {
		typ, payload, r, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != MsgType(i+1) || !bytes.Equal(payload, p) {
			t.Fatalf("frame %d: typ=%d payload=%v", i, typ, payload)
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestFrameDecodeRejectsHostileInput(t *testing.T) {
	good := AppendFrame(nil, MsgInfer, []byte("payload"))

	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrShortFrame},
		{"truncated header", func(b []byte) []byte { return b[:HeaderSize-1] }, ErrShortFrame},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }, ErrShortFrame},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		{"version skew", func(b []byte) []byte { b[2] = FrameVersion + 1; return b }, ErrVersionSkew},
		{"oversized length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], MaxPayload+1)
			return b
		}, ErrOversizedFrame},
		{"lying length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], 1<<19)
			return b
		}, ErrShortFrame},
		{"corrupt payload", func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }, ErrBadFrameCRC},
		{"corrupt crc", func(b []byte) []byte { b[9] ^= 0xFF; return b }, ErrBadFrameCRC},
	}
	for _, tc := range cases {
		b := tc.mut(append([]byte(nil), good...))
		_, _, rest, err := DecodeFrame(b)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if !bytes.Equal(rest, b) {
			t.Errorf("%s: failed decode consumed input", tc.name)
		}
	}
}

// chunkReader returns b in reads of the given sizes, cycled; no sizes
// means everything in one read.
type chunkReader struct {
	b     []byte
	sizes []int
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(c.b))
	if len(c.sizes) > 0 {
		n = min(n, c.sizes[c.i%len(c.sizes)])
		c.i++
	}
	copy(p, c.b[:n])
	c.b = c.b[n:]
	return n, nil
}

// TestFrameReader feeds frame streams to a frameReader in one read, one
// byte at a time, and in random chunks: the frames, the error that ends
// the stream, and the buffer bound must not depend on how the bytes
// arrive.
func TestFrameReader(t *testing.T) {
	a := AppendFrame(nil, MsgInfer, []byte("first"))
	b := AppendFrame(nil, MsgStats, nil)
	big := AppendFrame(nil, MsgBatchInfer, bytes.Repeat([]byte{0xCD}, 3*frameReadSize))
	badCRC := AppendFrame(nil, MsgHealth, []byte("x"))
	badCRC[len(badCRC)-1] ^= 0xFF
	oversized := AppendFrame(nil, MsgInfer, nil)
	binary.LittleEndian.PutUint32(oversized[4:8], MaxPayload+1)
	lying := AppendFrame(nil, MsgInfer, []byte("abc"))
	binary.LittleEndian.PutUint32(lying[4:8], MaxPayload)
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }

	cases := []struct {
		name   string
		stream []byte
		frames [][]byte // the frames next returns, in order
		err    error    // then this error
	}{
		{"empty stream", nil, nil, io.EOF},
		{"two frames in one read", cat(a, b), [][]byte{a, b}, io.EOF},
		{"frame larger than the buffer, split across reads", cat(a, big, b), [][]byte{a, big, b}, io.EOF},
		{"oversized length", cat(a, oversized), [][]byte{a}, ErrOversizedFrame},
		{"lying length", cat(a, lying), [][]byte{a}, io.ErrUnexpectedEOF},
		{"bad crc", cat(a, badCRC, b), [][]byte{a}, ErrBadFrameCRC},
		{"truncated header", cat(a, b[:HeaderSize-1]), [][]byte{a}, io.ErrUnexpectedEOF},
		{"truncated payload", cat(b, a[:len(a)-1]), [][]byte{b}, io.ErrUnexpectedEOF},
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]int, 64)
	for i := range random {
		random[i] = 1 + rng.Intn(2*HeaderSize)
	}
	readers := []struct {
		name string
		make func([]byte) io.Reader
	}{
		{"whole", func(s []byte) io.Reader { return &chunkReader{b: s} }},
		{"one byte", func(s []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(s)) }},
		{"random chunks", func(s []byte) io.Reader { return &chunkReader{b: s, sizes: random} }},
	}
	for _, tc := range cases {
		for _, rd := range readers {
			var fr frameReader
			src := rd.make(tc.stream)
			for i, want := range tc.frames {
				h, payload, err := fr.next(src)
				if err != nil {
					t.Fatalf("%s/%s: frame %d: %v", tc.name, rd.name, i, err)
				}
				if got := AppendFrame(nil, h.Type, payload); !bytes.Equal(got, want) {
					t.Fatalf("%s/%s: frame %d differs", tc.name, rd.name, i)
				}
			}
			if _, _, err := fr.next(src); !errors.Is(err, tc.err) {
				t.Errorf("%s/%s: end of stream: err = %v, want %v", tc.name, rd.name, err, tc.err)
			}
			if cap(fr.buf) > HeaderSize+MaxPayload {
				t.Errorf("%s/%s: buffer grew to %d bytes", tc.name, rd.name, cap(fr.buf))
			}
		}
	}
}

func TestProtocolRoundTrips(t *testing.T) {
	feats := []float64{0.25, -1, 3.5, 42}

	p := AppendInferReq(nil, 0, feats)
	dst := make([]float64, 8)
	n, tid, err := ParseInferReq(p, dst)
	if err != nil || n != 4 || tid != 0 {
		t.Fatalf("infer req: n=%d tid=%d err=%v", n, tid, err)
	}
	for i, f := range feats {
		if dst[i] != f {
			t.Fatalf("feat %d = %v", i, dst[i])
		}
	}

	// A client-stamped trace ID survives the round trip.
	const wantID = ClientTraceIDBit | 42
	p = AppendInferReq(nil, wantID, feats)
	if _, tid, err = ParseInferReq(p, dst); err != nil || tid != wantID {
		t.Fatalf("traced infer req: tid=%#x err=%v", tid, err)
	}

	p = AppendInferResp(nil, 3, 17)
	class, version, err := ParseInferResp(p)
	if err != nil || class != 3 || version != 17 {
		t.Fatalf("infer resp: %d %d %v", class, version, err)
	}

	flat := []float64{1, 2, 3, 4, 5, 6}
	p = AppendBatchInferReq(nil, wantID, flat, 2, 3)
	bdst := make([]float64, 6)
	rows, nfeat, btid, err := ParseBatchInferReq(p, bdst)
	if err != nil || rows != 2 || nfeat != 3 || btid != wantID {
		t.Fatalf("batch req: %d %d tid=%#x %v", rows, nfeat, btid, err)
	}

	classes := []uint16{0, 3, 2}
	p = AppendBatchInferResp(nil, classes, 9)
	out := make([]uint16, 3)
	rows, version, err = ParseBatchInferResp(p, out)
	if err != nil || rows != 3 || version != 9 || out[1] != 3 {
		t.Fatalf("batch resp: rows=%d v=%d out=%v err=%v", rows, version, out, err)
	}

	st := Stats{
		ActiveVersion: 1, Deploys: 2, Rollbacks: 3, Inferences: 4, Rows: 5,
		Errors: 6, Conns: 7, MaxConns: 8, ConnRejects: 9, ArenaRejects: 10,
		Collected: 11, Processed: 12, Dropped: 13, BufferLen: 14,
		BufferCap: 15, ArenaLive: 16, ArenaPeak: 17,
	}
	got, err := ParseStats(AppendStats(nil, st))
	if err != nil || got != st {
		t.Fatalf("stats round trip: %+v err=%v", got, err)
	}

	ok, version, inDim, err := ParseHealthResp(AppendHealthResp(nil, true, 5, 4))
	if err != nil || !ok || version != 5 || inDim != 4 {
		t.Fatalf("health: %v %d %d %v", ok, version, inDim, err)
	}
}

func TestParseReqBounds(t *testing.T) {
	dst := make([]float64, 4)
	if _, _, err := ParseInferReq(nil, dst); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("nil infer req: %v", err)
	}
	// Declared count larger than payload. The feature count sits after
	// the u64 trace-id prefix.
	p := AppendInferReq(nil, 0, []float64{1, 2, 3, 4})
	binary.LittleEndian.PutUint16(p[8:], 100)
	if _, _, err := ParseInferReq(p, dst); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("lying infer count: %v", err)
	}
	// Batch rows above the protocol bound.
	b := AppendBatchInferReq(nil, 0, []float64{1, 2}, 1, 2)
	binary.LittleEndian.PutUint32(b[8:], MaxBatchRows+1)
	if _, _, _, err := ParseBatchInferReq(b, dst); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("oversized batch rows: %v", err)
	}
	// The health ok byte is 0 or 1; anything else is not a health payload
	// (it would re-encode as 0, so accepting it is not canonical).
	h := AppendHealthResp(nil, true, 5, 4)
	h[0] = 2
	if _, _, _, err := ParseHealthResp(h); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("health ok byte 2: %v", err)
	}
}
