package mserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/wire/wiretest"
)

// TestFrameHeaderGolden pins one frame header; the hash was computed with
// the hand-written encoder the wire layout replaced.
func TestFrameHeaderGolden(t *testing.T) {
	hdr := bytes.Repeat([]byte{0xA5}, HeaderSize)
	appendHeader(hdr[:0], MsgBatchInfer, []byte("golden frame payload"))
	const want = "7de5605910d1de21a188f5933cd3db2bbab14829cccccd9bc9ac16c6d8ad001d"
	if got := fmt.Sprintf("%x", sha256.Sum256(hdr)); got != want {
		t.Errorf("frame header sha256 %s, want %s", got, want)
	}
}

// TestFrameHeaderMatchesReference checks appendHeader against the encoder it
// replaced, and ParseHeader against the reference on every truncation and
// byte flip of a frame: the same header, the same error.
func TestFrameHeaderMatchesReference(t *testing.T) {
	for _, typ := range []MsgType{MsgInfer, MsgStats, 0xFF} {
		for _, p := range [][]byte{nil, {1}, bytes.Repeat([]byte{7}, 300)} {
			got, want := make([]byte, HeaderSize), make([]byte, HeaderSize)
			appendHeader(got[:0], typ, p)
			refPutHeader(want, typ, p)
			if !bytes.Equal(got, want) {
				t.Fatalf("type %d, %d-byte payload: got %x, reference %x", typ, len(p), got, want)
			}
		}
	}
	frame := AppendFrame(nil, MsgInfer, []byte("a small payload"))
	wiretest.Each(frame, func(m wiretest.Mutation) {
		h, err := ParseHeader(m.Data)
		rh, rerr := refParseHeader(m.Data)
		if h != rh || err != rerr {
			t.Fatalf("%v: parsed %+v, %v; reference %+v, %v", m, h, err, rh, rerr)
		}
	})
}

// unchainedModelBytes is a checksum-valid model file whose Linear layers
// do not chain: 4×8, then 3×2.
func unchainedModelBytes(t *testing.T) []byte {
	rng := rand.New(rand.NewSource(1))
	layer := func(in, out int) []byte {
		var buf bytes.Buffer
		if err := nn.NewNetwork(nn.NewLinear(in, out, rng)).Save(&buf); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		return b[8 : len(b)-4] // the layer, without file header and checksum
	}
	body := append([]byte("KMLF\x01\x00\x02\x00"), layer(4, 8)...)
	body = append(body, layer(3, 2)...)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// outOfRangeTreeBytes is a checksum-valid four-feature tree whose root
// splits on feature 7.
func outOfRangeTreeBytes(t *testing.T) []byte {
	x := make([][]float64, 8)
	y := make([]int, 8)
	for i := range x {
		x[i] = make([]float64, 4)
		if i >= 4 {
			x[i][0], y[i] = 1, 1
		}
	}
	data := trainTreeBytes(t, x, y)
	if data[20] != 0 {
		t.Fatal("trained tree's root is a leaf")
	}
	binary.LittleEndian.PutUint32(data[21:], 7) // the root's feature, after magic, header and kind
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestDeployRejectsModelsBehindTheChecksum: a deploy of a model file that
// passes its checksum but cannot be served — Linear layers that do not
// chain, a tree split on a feature it does not have — fails, and the
// server keeps serving the version it had.
func TestDeployRejectsModelsBehindTheChecksum(t *testing.T) {
	srv, sock := startServer(t, Config{})
	cl := dial(t, sock)
	if v, err := srv.Deploy(KindNN, "readahead-nn", nnModelBytes(t, 42, 4)); err != nil || v.Number != 1 {
		t.Fatalf("deploy: v=%d err=%v", v.Number, err)
	}
	for _, c := range []struct {
		kind ModelKind
		data []byte
	}{
		{KindNN, unchainedModelBytes(t)},
		{KindDTree, outOfRangeTreeBytes(t)},
	} {
		if _, err := srv.Deploy(c.kind, "bad", c.data); err == nil {
			t.Errorf("deploy kind %d: accepted a model it cannot serve", c.kind)
		}
		if _, version, err := cl.Infer([]float64{0.1, 0.2, 0.3, 0.4}); err != nil || version != 1 {
			t.Fatalf("infer after a rejected deploy of kind %d: v=%d err=%v", c.kind, version, err)
		}
	}
}
