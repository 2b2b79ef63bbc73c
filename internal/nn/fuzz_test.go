package nn

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// fuzzSeedModel serializes a small trained-shaped network as a valid seed.
func fuzzSeedModel(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork(
		NewLinear(4, 8, rng), NewSigmoid(),
		NewLinear(8, 4, rng), NewSoftmax(),
	)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzModelRoundTrip feeds arbitrary bytes to the model-file loader, both
// as they are and with a correct CRC-32 appended: raw bytes almost never
// carry a valid checksum, so only the second form reaches the checks
// behind it. The loader must never panic or over-allocate on corrupt
// input — it either returns ErrBadModel-wrapped errors or a well-formed
// network whose serialization round-trips byte-identically.
func FuzzModelRoundTrip(f *testing.F) {
	seed := fuzzSeedModel(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-4])             // the body: valid once the CRC is appended
	f.Add(seed[:len(seed)-3])             // truncated checksum
	f.Add(seed[:7])                       // truncated header
	f.Add([]byte("KMLF"))                 // magic only
	f.Add([]byte{})                       // empty
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // garbage
	// A hostile header: valid magic/version, huge layer dims.
	hostile := append([]byte(nil), seed[:8]...)
	hostile = append(hostile, 1, 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x7f)
	f.Add(hostile)
	// Linear layers that do not chain (4x8 then 3x2), checksum valid.
	unchained := unchainedModel(f)
	f.Add(unchained[:len(unchained)-4])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withCRC(data)} {
			net, err := Load(bytes.NewReader(in))
			if err != nil {
				if net != nil || !errors.Is(err, ErrBadModel) {
					t.Fatalf("Load returned %v, %v", net, err)
				}
				continue
			}
			var out1 bytes.Buffer
			if err := net.Save(&out1); err != nil {
				t.Fatalf("re-saving a loaded network: %v", err)
			}
			net2, err := Load(bytes.NewReader(out1.Bytes()))
			if err != nil {
				t.Fatalf("reloading a saved network: %v", err)
			}
			var out2 bytes.Buffer
			if err := net2.Save(&out2); err != nil {
				t.Fatalf("re-saving the reloaded network: %v", err)
			}
			if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
				t.Fatal("save/load/save is not byte-stable")
			}
		}
	})
}

// TestLoadRejectsOversizedDims pins the allocation guard: a header
// claiming huge-but-individually-legal layer dimensions must fail with
// ErrBadModel before the weight buffers are allocated.
func TestLoadRejectsOversizedDims(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("KMLF")
	buf.Write([]byte{1, 0}) // version 1
	buf.Write([]byte{1, 0}) // one layer
	buf.WriteByte(1)        // kindLinear
	// in = 1<<15, out = 1<<15: each under maxLinearDim, product over
	// maxLinearWeights (would be an 8 GB weight buffer).
	buf.Write([]byte{0x00, 0x80, 0x00, 0x00})
	buf.Write([]byte{0x00, 0x80, 0x00, 0x00})
	_, err := Load(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrBadModel) {
		t.Fatalf("Load accepted %d x %d weights: err = %v", 1<<15, 1<<15, err)
	}
}
