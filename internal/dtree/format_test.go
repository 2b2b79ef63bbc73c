package dtree

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"testing"

	"repro/internal/wire/wiretest"
)

const committedTree = "../../testdata/models/readahead.dtree"

// withCRC returns body followed by its IEEE CRC-32, little-endian: a tree
// file whose checksum is right whatever the body says.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

func savedTree(tb testing.TB, tr *Tree) []byte {
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func seededTree(tb testing.TB) []byte {
	x, y := blobs(rand.New(rand.NewSource(4)), 300)
	tr, err := Train(x, y, 3, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return savedTree(tb, tr)
}

// outOfRangeFeatureTree is a checksum-valid two-feature tree whose root
// splits on feature 7.
func outOfRangeFeatureTree(tb testing.TB) []byte {
	data := seededTree(tb)
	if data[20] != 0 {
		tb.Fatal("seeded tree's root is a leaf")
	}
	binary.LittleEndian.PutUint32(data[21:], 7) // the root's feature, after magic, header and kind
	return withCRC(data[:len(data)-4])
}

func committedTreeBytes(tb testing.TB) []byte {
	data, err := os.ReadFile(committedTree)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestTreeFileGolden pins the bytes Save writes for the committed readahead
// tree loaded and saved again; the hash was computed with the
// hand-written codec the wire layout replaced.
func TestTreeFileGolden(t *testing.T) {
	committed := committedTreeBytes(t)
	tr, err := Load(bytes.NewReader(committed))
	if err != nil {
		t.Fatal(err)
	}
	resaved := savedTree(t, tr)
	if !bytes.Equal(resaved, committed) {
		t.Error("readahead.dtree does not re-save to its own bytes")
	}
	const want = "020a6c23fd77ea87873480686fc44920b2ba74950e53e05eadbd1b5ed106e2b1"
	if got := fmt.Sprintf("%x", sha256.Sum256(resaved)); got != want {
		t.Errorf("readahead.dtree sha256 %s, want %s", got, want)
	}
}

// splitsOutOfRange reports whether a split node of t routes on a feature
// the tree does not have.
func splitsOutOfRange(t *Tree) bool {
	var walk func(*node) bool
	walk = func(nd *node) bool {
		return !nd.leaf && (nd.feature >= t.features || walk(nd.left) || walk(nd.right))
	}
	return walk(t.root)
}

// TestTreeFileMatchesReference runs Save and Load against the codec they
// replaced on the seeds and on every truncation and byte flip of them:
// the same bytes out, the same accept/reject and the same tree in. The one
// allowed difference is the fix: the reference accepted a split on a
// feature ≥ features, which then panicked in Predict; Load rejects it.
func TestTreeFileMatchesReference(t *testing.T) {
	seeds := [][]byte{seededTree(t), committedTreeBytes(t), outOfRangeFeatureTree(t)}
	fixes := 0
	check := func(what string, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if len(data) >= 16 && uint64(binary.LittleEndian.Uint32(data[12:]))*8 > uint64(len(data)) {
			// The reference sizes every leaf by the header's class count
			// before reading it, so it would allocate up to 32 GiB here
			// before failing on the short input. Load must reject it too.
			if !errors.Is(err, ErrBadTree) {
				t.Fatalf("%s: Load err = %v, want ErrBadTree", what, err)
			}
			return
		}
		ref, rerr := refLoad(bytes.NewReader(data))
		if rerr == nil && splitsOutOfRange(ref) {
			if !errors.Is(err, ErrBadTree) {
				t.Fatalf("%s: Load err = %v, want ErrBadTree", what, err)
			}
			fixes++
			return
		}
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%s: Load err = %v, reference err = %v", what, err, rerr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadTree) {
				t.Fatalf("%s: Load err = %v, want ErrBadTree", what, err)
			}
			return
		}
		var want bytes.Buffer
		if err := refSave(ref, &want); err != nil {
			t.Fatal(err)
		}
		if enc := savedTree(t, got); !bytes.Equal(enc, want.Bytes()) {
			t.Fatalf("%s: Save of the loaded tree differs from the reference", what)
		}
	}
	for i, seed := range seeds {
		check(fmt.Sprintf("seed %d", i), seed)
		wiretest.Each(seed, func(m wiretest.Mutation) {
			check(fmt.Sprintf("seed %d %v", i, m), m.Data)
		})
	}
	if fixes != 1 {
		t.Errorf("%d inputs exercised the split-feature fix, want 1", fixes)
	}
}

// TestTreeFileRejectsEveryMutation: the checksum covers every byte, so no
// truncation and no byte flip of the committed tree loads.
func TestTreeFileRejectsEveryMutation(t *testing.T) {
	wiretest.Each(committedTreeBytes(t), func(m wiretest.Mutation) {
		if _, err := Load(bytes.NewReader(m.Data)); !errors.Is(err, ErrBadTree) {
			t.Fatalf("%v: Load err = %v, want ErrBadTree", m, err)
		}
	})
}

// TestLoadRejectsOutOfRangeFeature: a split on a feature the tree does not
// have is a bad tree file, not an index panic in the first Predict.
func TestLoadRejectsOutOfRangeFeature(t *testing.T) {
	tr, err := Load(bytes.NewReader(outOfRangeFeatureTree(t)))
	if !errors.Is(err, ErrBadTree) {
		tr.Predict([]float64{0, 0})
		t.Fatalf("Load of a split on feature 7 of 2: err = %v, want ErrBadTree", err)
	}
}

// FuzzTreeLoad feeds arbitrary bytes to the tree-file loader, both as
// they are and with a correct CRC-32 appended, so the fuzzer reaches the
// checks behind the checksum. Load must never panic; an accepted tree must
// predict on any input of its width and save/load/save byte-stably.
func FuzzTreeLoad(f *testing.F) {
	seed := seededTree(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-4])
	f.Add(committedTreeBytes(f))
	bad := outOfRangeFeatureTree(f)
	f.Add(bad[:len(bad)-4])
	f.Add([]byte("KMLT"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withCRC(data)} {
			tr, err := Load(bytes.NewReader(in))
			if err != nil {
				if tr != nil || !errors.Is(err, ErrBadTree) {
					t.Fatalf("Load returned %v, %v", tr, err)
				}
				continue
			}
			if tr.Features() <= 1<<10 {
				tr.Predict(make([]float64, tr.Features()))
			}
			out1 := savedTree(t, tr)
			tr2, err := Load(bytes.NewReader(out1))
			if err != nil {
				t.Fatalf("reloading a saved tree: %v", err)
			}
			if out2 := savedTree(t, tr2); !bytes.Equal(out1, out2) {
				t.Fatal("save/load/save is not byte-stable")
			}
		}
	})
}
