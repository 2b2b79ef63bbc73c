package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/pagecache"
	"repro/internal/vfs"
)

func newFS() *vfs.FS {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	cache := pagecache.New(pagecache.Config{CapacityPages: 1 << 18}, clk, dev, nil)
	return vfs.New(cache)
}

func key(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d-%s", i, "xxxxxxxxxxxxxxxxxxxx")) }

func buildTable(t testing.TB, fs *vfs.FS, name string, n int) *Table {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(f, 0)
	for i := 0; i < n; i++ {
		if err := b.Add(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestBuildOpenGet(t *testing.T) {
	fs := newFS()
	tbl := buildTable(t, fs, "t1", 1000)
	if tbl.Entries() != 1000 {
		t.Errorf("entries = %d", tbl.Entries())
	}
	if tbl.Blocks() < 2 {
		t.Errorf("blocks = %d; expected multiple blocks", tbl.Blocks())
	}
	for _, i := range []int{0, 1, 499, 500, 998, 999} {
		v, ok, err := tbl.Get(key(i))
		if err != nil || !ok {
			t.Fatalf("Get(%d): ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(v, val(i)) {
			t.Errorf("Get(%d) = %q", i, v)
		}
	}
}

func TestGetMissing(t *testing.T) {
	fs := newFS()
	tbl := buildTable(t, fs, "t1", 100)
	for _, k := range [][]byte{[]byte("aaa"), []byte("key00000500"), []byte("zzz")} {
		if _, ok, err := tbl.Get(k); ok || err != nil {
			t.Errorf("Get(%q): ok=%v err=%v", k, ok, err)
		}
	}
}

func TestBloomSkipsMostMisses(t *testing.T) {
	fs := newFS()
	tbl := buildTable(t, fs, "t1", 5000)
	fs.Cache().DropAll()
	fs.Cache().ResetStats()
	misses := 0
	for i := 0; i < 1000; i++ {
		if _, ok, _ := tbl.Get([]byte(fmt.Sprintf("absent%08d", i))); ok {
			t.Fatal("found absent key")
		}
	}
	// With a 10-bit bloom, ≥95% of absent lookups must avoid block reads.
	misses = int(fs.Cache().Stats().Misses)
	if misses > 150 {
		t.Errorf("bloom let %d block reads through for 1000 absent keys", misses)
	}
}

func TestSmallestLargest(t *testing.T) {
	fs := newFS()
	tbl := buildTable(t, fs, "t1", 100)
	if !bytes.Equal(tbl.Smallest(), key(0)) {
		t.Errorf("smallest = %q", tbl.Smallest())
	}
	if !bytes.Equal(tbl.Largest(), key(99)) {
		t.Errorf("largest = %q", tbl.Largest())
	}
}

func TestBuilderRejectsDisorder(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create("t")
	b := NewBuilder(f, 0)
	if err := b.Add([]byte("b"), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]byte("a"), nil); err == nil {
		t.Error("descending key must error")
	}
	if err := b.Add([]byte("b"), nil); err == nil {
		t.Error("duplicate key must error")
	}
	if err := b.Add(nil, nil); err == nil {
		t.Error("empty key must error")
	}
}

func TestBuilderEmptyFinishErrors(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create("t")
	b := NewBuilder(f, 0)
	if err := b.Finish(); err == nil {
		t.Error("empty table must error")
	}
}

func TestBuilderDoubleFinish(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create("t")
	b := NewBuilder(f, 0)
	b.Add([]byte("a"), []byte("1"))
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := b.Finish(); err == nil {
		t.Error("double Finish must error")
	}
	if err := b.Add([]byte("b"), nil); err == nil {
		t.Error("Add after Finish must error")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create("junk")
	f.WriteAt(bytes.Repeat([]byte{0xAB}, 4096), 0)
	if _, err := Open(f); !errors.Is(err, ErrBadTable) {
		t.Errorf("garbage open: %v", err)
	}
	tiny, _ := fs.Create("tiny")
	tiny.WriteAt([]byte("x"), 0)
	if _, err := Open(tiny); !errors.Is(err, ErrBadTable) {
		t.Errorf("tiny open: %v", err)
	}
}

func TestIteratorForward(t *testing.T) {
	fs := newFS()
	tbl := buildTable(t, fs, "t1", 500)
	it := tbl.NewIterator()
	it.SeekToFirst()
	count := 0
	var prev []byte
	for it.Valid() {
		if prev != nil && bytes.Compare(it.Key(), prev) <= 0 {
			t.Fatal("keys out of order")
		}
		prev = append(prev[:0], it.Key()...)
		count++
		it.Next()
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 500 {
		t.Errorf("iterated %d keys", count)
	}
}

func TestIteratorReverse(t *testing.T) {
	fs := newFS()
	tbl := buildTable(t, fs, "t1", 500)
	it := tbl.NewIterator()
	it.SeekToLast()
	count := 0
	var prev []byte
	for it.Valid() {
		if prev != nil && bytes.Compare(it.Key(), prev) >= 0 {
			t.Fatal("keys out of order (reverse)")
		}
		prev = append(prev[:0], it.Key()...)
		count++
		it.Prev()
	}
	if count != 500 {
		t.Errorf("iterated %d keys in reverse", count)
	}
}

func TestIteratorSeek(t *testing.T) {
	fs := newFS()
	tbl := buildTable(t, fs, "t1", 100)
	it := tbl.NewIterator()
	it.Seek(key(42))
	if !it.Valid() || !bytes.Equal(it.Key(), key(42)) {
		t.Fatalf("seek exact: %q", it.Key())
	}
	// Seek between keys lands on the next one.
	it.Seek([]byte("key00000042x"))
	if !it.Valid() || !bytes.Equal(it.Key(), key(43)) {
		t.Fatalf("seek between: valid=%v", it.Valid())
	}
	// Seek past the end is invalid.
	it.Seek([]byte("zzz"))
	if it.Valid() {
		t.Error("seek past end must be invalid")
	}
	// Seek before the start lands on the first key.
	it.Seek([]byte("a"))
	if !it.Valid() || !bytes.Equal(it.Key(), key(0)) {
		t.Error("seek before start")
	}
}

func TestIteratorCrossesBlockBoundaries(t *testing.T) {
	fs := newFS()
	tbl := buildTable(t, fs, "t1", 2000)
	if tbl.Blocks() < 3 {
		t.Skip("need multiple blocks")
	}
	// Walk forward then backward across the whole table; counts must match.
	it := tbl.NewIterator()
	it.SeekToFirst()
	fwd := 0
	for it.Valid() {
		fwd++
		it.Next()
	}
	it.SeekToLast()
	rev := 0
	for it.Valid() {
		rev++
		it.Prev()
	}
	if fwd != rev || fwd != 2000 {
		t.Errorf("fwd %d rev %d", fwd, rev)
	}
}

func TestValuesSurviveRoundTrip(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create("t")
	b := NewBuilder(f, 0)
	// Empty values and binary values.
	b.Add([]byte("a"), nil)
	b.Add([]byte("b"), []byte{0, 1, 2, 255})
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, _ := tbl.Get([]byte("a"))
	if !ok || len(v) != 0 {
		t.Error("empty value")
	}
	v, ok, _ = tbl.Get([]byte("b"))
	if !ok || !bytes.Equal(v, []byte{0, 1, 2, 255}) {
		t.Error("binary value")
	}
}

func TestBloomFilter(t *testing.T) {
	b := NewBloom(1000, 10)
	for i := 0; i < 1000; i++ {
		b.Add(key(i))
	}
	for i := 0; i < 1000; i++ {
		if !b.MayContain(key(i)) {
			t.Fatal("false negative")
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if b.MayContain([]byte(fmt.Sprintf("no%08d", i))) {
			fp++
		}
	}
	if rate := float64(fp) / 10000; rate > 0.05 {
		t.Errorf("false positive rate %.4f", rate)
	}
}

func TestBloomMarshalRoundTrip(t *testing.T) {
	b := NewBloom(100, 10)
	b.Add([]byte("hello"))
	got, err := UnmarshalBloom(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.MayContain([]byte("hello")) {
		t.Error("round trip lost key")
	}
	if _, err := UnmarshalBloom([]byte{1}); err == nil {
		t.Error("short bloom must error")
	}
	if _, err := UnmarshalBloom(make([]byte, 16)); err == nil {
		t.Error("k=0 bloom must error")
	}
}

func BenchmarkGet(b *testing.B) {
	fs := newFS()
	tbl := buildTable(b, fs, "t1", 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Get(key(i % 10000))
	}
}

// refReadBlock is the allocating decoder readBlock replaced — a fresh raw
// buffer and a fresh entry slice per block — kept as the reference the
// in-place one is compared against.
func refReadBlock(t *Table, i int) ([]entry, error) {
	e := t.index[i]
	raw := make([]byte, e.length)
	if _, err := t.f.ReadAt(raw, e.off); err != nil {
		return nil, fmt.Errorf("%w: block %d: %v", ErrBadTable, i, err)
	}
	var out []entry
	for len(raw) > 0 {
		klen, n := binary.Uvarint(raw)
		if klen == 0 {
			break
		}
		if n <= 0 || int(klen) > len(raw)-n {
			return nil, fmt.Errorf("%w: block %d entry", ErrBadTable, i)
		}
		raw = raw[n:]
		key := raw[:klen:klen]
		raw = raw[klen:]
		vlen, n := binary.Uvarint(raw)
		if n <= 0 || int(vlen) > len(raw)-n {
			return nil, fmt.Errorf("%w: block %d value", ErrBadTable, i)
		}
		raw = raw[n:]
		val := raw[:vlen:vlen]
		raw = raw[vlen:]
		out = append(out, entry{key: key, value: val})
	}
	return out, nil
}

func sameEntries(a, b []entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].key, b[i].key) || !bytes.Equal(a[i].value, b[i].value) {
			return false
		}
	}
	return true
}

// TestIteratorAllocsIndependentOfBlocks: a full scan in either direction
// costs the iterator, its block buffer and its entry slice — a handful of
// allocations however many blocks it crosses.
func TestIteratorAllocsIndependentOfBlocks(t *testing.T) {
	for _, n := range []int{8000, 32000} {
		tbl := buildTable(t, newFS(), "t", n)
		if tbl.Blocks() < 64 {
			t.Fatalf("%d entries make only %d blocks", n, tbl.Blocks())
		}
		seen := 0
		fwd := testing.AllocsPerRun(3, func() {
			it := tbl.NewIterator()
			for it.SeekToFirst(); it.Valid(); it.Next() {
				seen++
			}
		})
		rev := testing.AllocsPerRun(3, func() {
			it := tbl.NewIterator()
			for it.SeekToLast(); it.Valid(); it.Prev() {
				seen++
			}
		})
		if fwd > 4 || rev > 4 {
			t.Errorf("%d blocks: forward scan allocates %.0f, reverse %.0f, want <= 4 each", tbl.Blocks(), fwd, rev)
		}
		if seen != 8*n {
			t.Errorf("scans visited %d entries, want %d", seen, 8*n)
		}
	}
}

// TestIteratorReusesBlockStorage pins the validity contract from both
// sides: what the caller copied out before the iterator moved stays intact
// across every block boundary, in both directions and after seeks, and the
// sequence equals the one the copying reference decoder produces.
func TestIteratorReusesBlockStorage(t *testing.T) {
	tbl := buildTable(t, newFS(), "t", 2000)
	if tbl.Blocks() < 3 {
		t.Fatalf("need several blocks, have %d", tbl.Blocks())
	}
	var want []entry
	for i := 0; i < tbl.Blocks(); i++ {
		es, err := refReadBlock(tbl, i)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, es...)
	}
	collect := func(it *Iterator, step func()) []entry {
		var got []entry
		for ; it.Valid(); step() {
			got = append(got, entry{
				key:   append([]byte(nil), it.Key()...),
				value: append([]byte(nil), it.Value()...),
			})
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	it := tbl.NewIterator()
	it.SeekToFirst()
	if got := collect(it, it.Next); !sameEntries(got, want) {
		t.Error("forward scan differs from the copying reference")
	}
	// Same iterator, other direction: the storage is dirty from the pass above.
	it.SeekToLast()
	got := collect(it, it.Prev)
	for i, j := 0, len(got)-1; i < j; i, j = i+1, j-1 {
		got[i], got[j] = got[j], got[i]
	}
	if !sameEntries(got, want) {
		t.Error("reverse scan differs from the copying reference")
	}
	for _, i := range []int{1999, 0, 1000, 7} {
		it.Seek(want[i].key)
		if got := collect(it, it.Next); !sameEntries(got, want[i:]) {
			t.Errorf("scan from a seek to entry %d differs from the copying reference", i)
		}
	}
}

// TestReadBlockRejectsWhatTheReferenceRejects flips bytes through the head
// of a data block and checks the in-place decoder against the allocating
// one: same error or same entries, with the block storage reused (and so
// dirty) from one mutation to the next.
func TestReadBlockRejectsWhatTheReferenceRejects(t *testing.T) {
	tbl := buildTable(t, newFS(), "t", 500)
	f := tbl.File()
	e := tbl.index[0]
	var b block
	rejected := 0
	for pos := int64(0); pos < 256 && pos < e.length; pos++ {
		var orig [1]byte
		if _, err := f.ReadAt(orig[:], e.off+pos); err != nil {
			t.Fatal(err)
		}
		for _, mut := range []byte{0x00, 0x7f, 0x80, 0xff, orig[0] ^ 0x01} {
			if _, err := f.WriteAt([]byte{mut}, e.off+pos); err != nil {
				t.Fatal(err)
			}
			want, wantErr := refReadBlock(tbl, 0)
			gotErr := tbl.readBlock(0, &b)
			switch {
			case (gotErr == nil) != (wantErr == nil):
				t.Fatalf("byte %d = %#x: readBlock error %v, reference %v", pos, mut, gotErr, wantErr)
			case gotErr != nil:
				rejected++
				if gotErr.Error() != wantErr.Error() || !errors.Is(gotErr, ErrBadTable) {
					t.Fatalf("byte %d = %#x: readBlock error %q, reference %q", pos, mut, gotErr, wantErr)
				}
			case !sameEntries(b.entries, want):
				t.Fatalf("byte %d = %#x: decoded entries differ from the reference", pos, mut)
			}
		}
		if _, err := f.WriteAt(orig[:], e.off+pos); err != nil {
			t.Fatal(err)
		}
	}
	if rejected == 0 {
		t.Error("no mutation was rejected; the test corrupts nothing that matters")
	}
}

// TestOpenRejectsEmptyFirstBlock: a first block that decodes to nothing
// (its leading key length zeroed, which reads as padding) is a bad table,
// not an index out of range.
func TestOpenRejectsEmptyFirstBlock(t *testing.T) {
	tbl := buildTable(t, newFS(), "t", 10)
	if _, err := tbl.File().WriteAt([]byte{0}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(tbl.File()); !errors.Is(err, ErrBadTable) {
		t.Errorf("open with an empty first block: %v", err)
	}
}
