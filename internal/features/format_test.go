package features

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/wire/wiretest"
)

func committedNormalizer(tb testing.TB) []byte {
	data, err := os.ReadFile("../../testdata/models/readahead.norm")
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// sameBits compares two normalizers bit for bit, so NaNs compare equal.
func sameBits(a, b Normalizer) bool {
	for i := range a.Z {
		if math.Float64bits(a.Z[i].Mean) != math.Float64bits(b.Z[i].Mean) ||
			math.Float64bits(a.Z[i].StdDev) != math.Float64bits(b.Z[i].StdDev) {
			return false
		}
	}
	return true
}

// TestNormalizerGolden pins the bytes Save writes for the committed
// readahead normalizer loaded and saved again; the hash was computed with
// the hand-written codec the wire layout replaced.
func TestNormalizerGolden(t *testing.T) {
	committed := committedNormalizer(t)
	n, err := LoadNormalizer(bytes.NewReader(committed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), committed) {
		t.Error("readahead.norm does not re-save to its own bytes")
	}
	const want = "d334fad4234e40df6f1bc8c24db14ded26b3551d73adeedfff9eeb4c1b00f86f"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("readahead.norm sha256 %s, want %s", got, want)
	}
}

// TestNormalizerMatchesReference runs Save and LoadNormalizer against the
// codec they replaced on the committed normalizer and on every truncation
// and byte flip of it: the same bytes out, the same accept/reject and the
// same parameters in. The format has no checksum, so a flipped parameter
// byte loads; a short read or a wrong magic must not, and nothing panics.
func TestNormalizerMatchesReference(t *testing.T) {
	check := func(what string, data []byte) {
		got, err := LoadNormalizer(bytes.NewReader(data))
		ref, rerr := refLoadNormalizer(bytes.NewReader(data))
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%s: LoadNormalizer err = %v, reference err = %v", what, err, rerr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadNormalizer) {
				t.Fatalf("%s: err = %v, want ErrBadNormalizer", what, err)
			}
			return
		}
		if !sameBits(got, ref) {
			t.Fatalf("%s: loaded %+v, reference %+v", what, got, ref)
		}
		var enc, want bytes.Buffer
		if err := got.Save(&enc); err != nil {
			t.Fatal(err)
		}
		if err := refSave(ref, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), want.Bytes()) || !bytes.Equal(enc.Bytes(), data) {
			t.Fatalf("%s: re-saved %x, reference %x", what, enc.Bytes(), want.Bytes())
		}
	}
	seed := committedNormalizer(t)
	check("readahead.norm", seed)
	wiretest.Each(seed, func(m wiretest.Mutation) { check(m.String(), m.Data) })
}
