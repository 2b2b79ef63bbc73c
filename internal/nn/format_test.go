package nn

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"testing"

	"repro/internal/wire/wiretest"
)

const committedModel = "../../testdata/models/readahead.kml"

// withCRC returns body followed by its IEEE CRC-32, little-endian: a
// model file whose checksum is right whatever the body says.
func withCRC(body []byte) []byte {
	sum := crc32.ChecksumIEEE(body)
	return append(append([]byte(nil), body...), byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

// unchainedModel is a checksum-valid file whose Linear layers do not
// chain: 4×8, then 3×2.
func unchainedModel(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(1))
	net := &Network{layers: []Layer{NewLinear(4, 8, rng), NewLinear(3, 2, rng)}}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func committedModelBytes(tb testing.TB) []byte {
	data, err := os.ReadFile(committedModel)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func saved(tb testing.TB, net *Network) []byte {
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestModelFileGolden pins the bytes Save writes for a seeded network and
// for the committed readahead model loaded and saved again; the hashes
// were computed with the hand-written codec the wire layout replaced.
func TestModelFileGolden(t *testing.T) {
	committed := committedModelBytes(t)
	net, err := Load(bytes.NewReader(committed))
	if err != nil {
		t.Fatal(err)
	}
	resaved := saved(t, net)
	if !bytes.Equal(resaved, committed) {
		t.Error("readahead.kml does not re-save to its own bytes")
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"seeded", fuzzSeedModel(t), "a22e81ceb454ad7ac10357b82ad5eac561c3d950bc028b8067690fdb027c0918"},
		{"readahead.kml", resaved, "c5f0ad0d4c83f8f2aecf502d3eb79cb0c3f3aec8ec2252a2ec3208aea2f53e51"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.data)); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

// refLoadRecover runs the reference loader, turning a panic into an error
// that says so.
func refLoadRecover(data []byte) (net *Network, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			net, err, panicked = nil, fmt.Errorf("panic: %v", r), true
		}
	}()
	net, err = refLoad(bytes.NewReader(data))
	return net, err, false
}

// TestModelFileMatchesReference runs Save and Load against the codec they
// replaced on the seeds and on every truncation and byte flip of them:
// the same bytes out, the same accept/reject and the same network in. The
// one allowed difference is the fix: a checksum-valid file whose layers
// do not chain panicked in the reference and is ErrBadModel now.
func TestModelFileMatchesReference(t *testing.T) {
	seeds := [][]byte{fuzzSeedModel(t), committedModelBytes(t), unchainedModel(t)}
	fixes := 0
	check := func(what string, data []byte) {
		got, err := Load(bytes.NewReader(data))
		ref, rerr, panicked := refLoadRecover(data)
		if panicked {
			if !errors.Is(err, ErrBadModel) {
				t.Fatalf("%s: reference %v; Load err = %v, want ErrBadModel", what, rerr, err)
			}
			fixes++
			return
		}
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%s: Load err = %v, reference err = %v", what, err, rerr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadModel) {
				t.Fatalf("%s: Load err = %v, want ErrBadModel", what, err)
			}
			return
		}
		var want bytes.Buffer
		if err := refSave(ref, &want); err != nil {
			t.Fatal(err)
		}
		if enc := saved(t, got); !bytes.Equal(enc, want.Bytes()) {
			t.Fatalf("%s: Save of the loaded network differs from the reference", what)
		}
	}
	for i, seed := range seeds {
		check(fmt.Sprintf("seed %d", i), seed)
		wiretest.Each(seed, func(m wiretest.Mutation) {
			check(fmt.Sprintf("seed %d %v", i, m), m.Data)
		})
	}
	if fixes != 1 {
		t.Errorf("%d inputs exercised the unchained-dims fix, want 1", fixes)
	}
}

// TestModelFileRejectsEveryMutation: the checksum covers every byte, so
// no truncation and no byte flip of the committed model loads.
func TestModelFileRejectsEveryMutation(t *testing.T) {
	wiretest.Each(committedModelBytes(t), func(m wiretest.Mutation) {
		if _, err := Load(bytes.NewReader(m.Data)); !errors.Is(err, ErrBadModel) {
			t.Fatalf("%v: Load err = %v, want ErrBadModel", m, err)
		}
	})
}

// TestLoadRejectsUnchainedDims: a file that passes the checksum but whose
// Linear layers do not chain is a bad model file, not a panic in
// NewNetwork.
func TestLoadRejectsUnchainedDims(t *testing.T) {
	if _, err := Load(bytes.NewReader(unchainedModel(t))); !errors.Is(err, ErrBadModel) {
		t.Fatalf("Load of a 4x8 then 3x2 network: err = %v, want ErrBadModel", err)
	}
}
