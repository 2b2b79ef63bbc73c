package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/vfs"
	"repro/internal/wire/wiretest"
)

// hostileVarint is a uvarint length of 2^63: converted to int before the
// bounds check, it wraps negative and passes it.
var hostileVarint = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}

// smallTable builds a two-block table, every seventh entry a tombstone,
// and returns its bytes.
func smallTable(tb testing.TB) []byte {
	tb.Helper()
	f, err := newFS().Create("small")
	if err != nil {
		tb.Fatal(err)
	}
	b := NewBuilder(f, 0)
	for i := 0; i < 120; i++ {
		v, tomb := val(i), i%7 == 3
		if tomb {
			v = nil
		}
		if err := b.Add(key(i), v, tomb); err != nil {
			tb.Fatal(err)
		}
	}
	if err := b.Finish(); err != nil {
		tb.Fatal(err)
	}
	return fileBytes(tb, f)
}

func fileBytes(tb testing.TB, f *vfs.File) []byte {
	data := make([]byte, f.Size())
	if _, err := f.ReadAt(data, 0); err != nil {
		tb.Fatal(err)
	}
	return data
}

// fileOf writes data to a new file of fs.
func fileOf(tb testing.TB, fs *vfs.FS, name string, data []byte) *vfs.File {
	f, err := fs.Create(name)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		tb.Fatal(err)
	}
	return f
}

// outcome is what one decoder made of a table image: the open error, or
// the table's metadata, every block's entries or error, and point lookups.
type outcome struct {
	open  error
	meta  string
	reads []string
}

// ran reports the outcome of run, or panicked with the panic's value.
func ran(run func() outcome) (o outcome, panicked any) {
	defer func() { panicked = recover() }()
	return run(), nil
}

func describeTable(t *Table) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "entries %d first %q last %q bloom k=%d %x\n", t.entries, t.first, t.last, t.bloom.k, t.bloom.bits)
	for _, e := range t.index {
		fmt.Fprintf(&b, "index %q %d %d\n", e.lastKey, e.off, e.length)
	}
	return b.String()
}

func describeEntries(es []entry, err error) string {
	if err != nil {
		return "error"
	}
	var b bytes.Buffer
	for _, e := range es {
		fmt.Fprintf(&b, "%q=%q/%v ", e.key, e.value, e.tombstone)
	}
	return b.String()
}

func describeGet(v []byte, tomb, ok bool, err error) string {
	return fmt.Sprintf("%q %v %v %v", v, tomb, ok, err != nil)
}

// decodeWith opens data with open and reads every block with read and
// the first, last and a middle key with get.
func decodeWith(tb testing.TB, data []byte, open func(*vfs.File) (*Table, error),
	read func(*Table, int) ([]entry, error), get func(*Table, []byte) ([]byte, bool, bool, error)) outcome {
	t, err := open(fileOf(tb, newFS(), "t", data))
	if err != nil {
		return outcome{open: err}
	}
	o := outcome{meta: describeTable(t)}
	for i := range t.index {
		o.reads = append(o.reads, describeEntries(read(t, i)))
	}
	for _, k := range [][]byte{t.first, t.last, key(60), key(59)} {
		o.reads = append(o.reads, describeGet(get(t, k)))
	}
	return o
}

func newDecode(tb testing.TB, data []byte) outcome {
	var b block
	return decodeWith(tb, data, Open, func(t *Table, i int) ([]entry, error) {
		err := t.readBlock(i, &b)
		return b.entries, err
	}, (*Table).Get)
}

func refDecode(tb testing.TB, data []byte) outcome {
	return decodeWith(tb, data, refOpen, refReadBlock, refGet)
}

// TestTableMatchesReference runs Open, the block decoder and Get against
// the decoders they replaced on a two-block table and on every truncation
// and byte flip of it: the same accept/reject, the same index, bloom and
// entries, the same lookups. The allowed difference is the length fix: a
// uvarint length ≥ 2^63 panicked in the reference and is ErrBadTable now.
// Every error Open returns wraps ErrBadTable (the reference returned the
// bloom's errors bare).
func TestTableMatchesReference(t *testing.T) {
	img := smallTable(t)
	check := func(what string, data []byte) {
		got := newDecode(t, data)
		ref, panicked := ran(func() outcome { return refDecode(t, data) })
		if got.open != nil && !errors.Is(got.open, ErrBadTable) {
			t.Fatalf("%s: Open err = %v, want ErrBadTable", what, got.open)
		}
		if panicked != nil {
			if got.open == nil {
				t.Fatalf("%s: reference panicked (%v), Open accepted", what, panicked)
			}
			return
		}
		if (got.open == nil) != (ref.open == nil) {
			t.Fatalf("%s: Open err = %v, reference err = %v", what, got.open, ref.open)
		}
		if got.meta != ref.meta || fmt.Sprint(got.reads) != fmt.Sprint(ref.reads) {
			t.Fatalf("%s: decoded\n%s%q\nreference\n%s%q", what, got.meta, got.reads, ref.meta, ref.reads)
		}
	}
	check("table", img)
	wiretest.Each(img, func(m wiretest.Mutation) { check(m.String(), m.Data) })
}

// TestTableMutationsNeverPanic: whatever a truncation or byte flip does to
// a table, Open, a full scan and Get return errors that wrap ErrBadTable.
// A kind byte set to anything but 0 or 1 is always an error: Open's, or
// the scan's.
func TestTableMutationsNeverPanic(t *testing.T) {
	img := smallTable(t)
	wiretest.Each(img, func(m wiretest.Mutation) { probeTable(t, m.String(), m.Data) })
	for _, data := range kindFlips(t, img) {
		if !probeTable(t, "kind flip", data) {
			t.Fatal("a table with a bad kind byte opened and scanned clean")
		}
	}
}

// kindFlips returns a copy of the table image img for every entry's kind
// byte and each of the values 2, 0x80 and 0xFF written over it.
func kindFlips(tb testing.TB, img []byte) [][]byte {
	var out [][]byte
	for _, off := range kindOffsets(tb, img) {
		for _, bad := range []byte{2, 0x80, 0xFF} {
			data := append([]byte(nil), img...)
			data[off] = bad
			out = append(out, data)
		}
	}
	return out
}

// probeTable opens data and, if that succeeds, scans it and looks up its
// first and last keys; every error must wrap ErrBadTable. It reports
// whether Open or the scan failed.
func probeTable(t *testing.T, what string, data []byte) (rejected bool) {
	tbl, err := Open(fileOf(t, newFS(), "t", data))
	if err != nil {
		if !errors.Is(err, ErrBadTable) {
			t.Fatalf("%s: Open err = %v, want ErrBadTable", what, err)
		}
		return true
	}
	it := tbl.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
	}
	if err := it.Err(); err != nil && !errors.Is(err, ErrBadTable) {
		t.Fatalf("%s: scan err = %v, want ErrBadTable", what, err)
	}
	for _, k := range [][]byte{tbl.first, tbl.last} {
		if _, _, _, err := tbl.Get(k); err != nil && !errors.Is(err, ErrBadTable) {
			t.Fatalf("%s: Get(%q) err = %v, want ErrBadTable", what, k, err)
		}
	}
	return it.Err() != nil
}

// hostileTables returns the small table with a 2^63 uvarint length
// written over the head of block 0, the head of the index, and the head
// of the last block (which only a lookup or scan decodes).
func hostileTables(tb testing.TB) map[string][]byte {
	img := smallTable(tb)
	tbl, err := Open(fileOf(tb, newFS(), "t", img))
	if err != nil {
		tb.Fatal(err)
	}
	at := map[string]int64{
		"block entry": 0,
		"index entry": int64(binary.LittleEndian.Uint64(img[len(img)-footerSize:])),
		"get":         tbl.index[len(tbl.index)-1].off,
	}
	out := make(map[string][]byte)
	for name, off := range at {
		data := append([]byte(nil), img...)
		copy(data[off:], hostileVarint)
		out[name] = data
	}
	return out
}

// TestTableRejectsHostileVarint: a 2^63 length in a block entry, an index
// entry or the block a Get decodes is ErrBadTable, not a slice panic.
func TestTableRejectsHostileVarint(t *testing.T) {
	for name, data := range hostileTables(t) {
		tbl, err := Open(fileOf(t, newFS(), "t", data))
		if name != "get" {
			if !errors.Is(err, ErrBadTable) {
				t.Errorf("%s: Open err = %v, want ErrBadTable", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		if _, _, _, err := tbl.Get(tbl.last); !errors.Is(err, ErrBadTable) {
			t.Errorf("%s: Get err = %v, want ErrBadTable", name, err)
		}
	}
}

// FuzzTableOpen feeds arbitrary bytes to Open; an opened table is scanned
// forward and its first and last keys are looked up. None of that may
// panic, and every error must wrap ErrBadTable. The seeds include the
// table with its first and its last kind byte flipped (a seed per kind
// byte would spend a short fuzz run on the seeds alone;
// TestTableMutationsNeverPanic runs every one).
func FuzzTableOpen(f *testing.F) {
	img := smallTable(f)
	f.Add(img)
	f.Add(img[len(img)-footerSize:])
	for _, data := range hostileTables(f) {
		f.Add(data)
	}
	flips := kindFlips(f, img)
	for _, data := range [][]byte{flips[0], flips[2], flips[len(flips)-1]} {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { probeTable(t, "input", data) })
}
