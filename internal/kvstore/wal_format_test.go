package kvstore

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/vfs"
	"repro/internal/wire/wiretest"
)

// walFixture is a log whose records cover both kinds, an empty value and
// lengths that need two varint bytes.
var walFixture = []walRecord{
	{walPut, []byte("k1"), []byte("v1")},
	{walDelete, []byte("k2"), nil},
	{walPut, bytes.Repeat([]byte("K"), 200), bytes.Repeat([]byte("V"), 300)},
	{walPut, []byte("empty"), nil},
}

// replayBytes writes data to a fresh file of fs and replays it with replay.
func replayBytes(t *testing.T, fs *vfs.FS, data []byte, replay func(*vfs.File) ([]walRecord, error)) ([]walRecord, error) {
	t.Helper()
	f, err := fs.Create("wal")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Remove("wal")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return replay(f)
}

func sameRecords(a, b []walRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || !bytes.Equal(a[i].key, b[i].key) || !bytes.Equal(a[i].value, b[i].value) {
			return false
		}
	}
	return true
}

// TestWALMatchesReference checks wal.append against the encoder it
// replaced, and replayWAL against the reference decoder on the fixture
// log and on every truncation and byte flip of it: the same accept/reject
// and the same records. A truncated log either fails or replays exactly
// the records that lie wholly before the cut.
func TestWALMatchesReference(t *testing.T) {
	fs := newFS()
	f, err := fs.Create("fixture")
	if err != nil {
		t.Fatal(err)
	}
	w := newWAL(f, false)
	var want []byte
	var ends []int // the log length after each record
	for _, r := range walFixture {
		if err := w.append(r.kind, r.key, r.value); err != nil {
			t.Fatal(err)
		}
		want = append(want, refAppend(r.kind, r.key, r.value)...)
		ends = append(ends, len(want))
	}
	img := make([]byte, f.Size())
	if _, err := f.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, want) {
		t.Fatalf("wal.append wrote %x, reference %x", img, want)
	}
	check := func(m wiretest.Mutation) {
		got, err := replayBytes(t, fs, m.Data, replayWAL)
		ref, rerr := replayBytes(t, fs, m.Data, refReplayWAL)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%v: replay err = %v, reference err = %v", m, err, rerr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadWAL) {
				t.Fatalf("%v: err = %v, want ErrBadWAL", m, err)
			}
			return
		}
		if !sameRecords(got, ref) {
			t.Fatalf("%v: replayed records differ from the reference", m)
		}
		if m.Cut {
			whole := 0
			for whole < len(ends) && ends[whole] <= m.At {
				whole++
			}
			if !sameRecords(got, walFixture[:whole]) {
				t.Fatalf("%v: replayed %d records, want the %d before the cut", m, len(got), whole)
			}
		}
	}
	check(wiretest.Mutation{Data: img, Cut: true, At: len(img)})
	wiretest.Each(img, check)
}
