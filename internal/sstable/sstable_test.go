package sstable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/pagecache"
	"repro/internal/vfs"
)

func newFS() *vfs.FS {
	fs, _ := newFSCache()
	return fs
}

// newFSCache returns a filesystem and the page cache under it.
func newFSCache() (*vfs.FS, *pagecache.Cache) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	cache := pagecache.New(pagecache.Config{CapacityPages: 1 << 18}, clk, dev, nil)
	return vfs.New(cache), cache
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
		if err := b.Add(key(i), val(i), false); err != nil {
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
	if len(tbl.index) < 2 {
		t.Errorf("blocks = %d; expected multiple blocks", len(tbl.index))
	}
	for _, i := range []int{0, 1, 499, 500, 998, 999} {
		v, tomb, ok, err := tbl.Get(key(i))
		if err != nil || !ok || tomb {
			t.Fatalf("Get(%d): ok=%v tombstone=%v err=%v", i, ok, tomb, err)
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
		if _, _, ok, err := tbl.Get(k); ok || err != nil {
			t.Errorf("Get(%q): ok=%v err=%v", k, ok, err)
		}
	}
}

func TestBloomSkipsMostMisses(t *testing.T) {
	fs, cache := newFSCache()
	tbl := buildTable(t, fs, "t1", 5000)
	cache.DropAll()
	cache.ResetStats()
	misses := 0
	for i := 0; i < 1000; i++ {
		if _, _, ok, _ := tbl.Get([]byte(fmt.Sprintf("absent%08d", i))); ok {
			t.Fatal("found absent key")
		}
	}
	// With a 10-bit bloom, ≥95% of absent lookups must avoid block reads.
	misses = int(cache.Stats().Misses)
	if misses > 150 {
		t.Errorf("bloom let %d block reads through for 1000 absent keys", misses)
	}
}

func TestSmallestLargest(t *testing.T) {
	fs := newFS()
	tbl := buildTable(t, fs, "t1", 100)
	if !bytes.Equal(tbl.first, key(0)) {
		t.Errorf("smallest = %q", tbl.first)
	}
	if !bytes.Equal(tbl.last, key(99)) {
		t.Errorf("largest = %q", tbl.last)
	}
}

func TestBuilderRejectsDisorder(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create("t")
	b := NewBuilder(f, 0)
	if err := b.Add([]byte("b"), nil, false); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]byte("a"), nil, false); err == nil {
		t.Error("descending key must error")
	}
	if err := b.Add([]byte("b"), nil, false); err == nil {
		t.Error("duplicate key must error")
	}
	if err := b.Add(nil, nil, false); err == nil {
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
	b.Add([]byte("a"), []byte("1"), false)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := b.Finish(); err == nil {
		t.Error("double Finish must error")
	}
	if err := b.Add([]byte("b"), nil, false); err == nil {
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
	if len(tbl.index) < 3 {
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
	// Empty values, binary values and a tombstone.
	b.Add([]byte("a"), nil, false)
	b.Add([]byte("b"), []byte{0, 1, 2, 255}, false)
	b.Add([]byte("c"), nil, true)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	v, tomb, ok, _ := tbl.Get([]byte("a"))
	if !ok || tomb || len(v) != 0 {
		t.Error("empty value")
	}
	v, tomb, ok, _ = tbl.Get([]byte("b"))
	if !ok || tomb || !bytes.Equal(v, []byte{0, 1, 2, 255}) {
		t.Error("binary value")
	}
	v, tomb, ok, _ = tbl.Get([]byte("c"))
	if !ok || !tomb || len(v) != 0 {
		t.Error("tombstone")
	}
}

func TestBloomFilter(t *testing.T) {
	b := NewBloom(1000, 10)
	for i := 0; i < 1000; i++ {
		b.addHash(fnv64a(key(i)))
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
	b.addHash(fnv64a([]byte("hello")))
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

// TestBuilderBloomMatchesPerKeyAdd: the filter a Builder writes from its
// per-key hashes is byte-for-byte the one NewBloom plus one addHash per
// key gives.
func TestBuilderBloomMatchesPerKeyAdd(t *testing.T) {
	for _, n := range []int{1, 7, 1000, 5000} {
		tbl := buildTable(t, newFS(), "t", n)
		want := NewBloom(n, 10)
		for i := 0; i < n; i++ {
			want.addHash(fnv64a(key(i)))
		}
		if !bytes.Equal(tbl.bloom.Marshal(), want.Marshal()) {
			t.Errorf("%d keys: the table's bloom differs from per-key Add", n)
		}
	}
}

// seededTable builds a table from a seeded key set: random keys, values of
// random length (empty included) and random bytes.
func seededTable(t testing.TB, fs *vfs.FS, name string) *vfs.File {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]bool)
	var keys []string
	for len(keys) < 3000 {
		k := fmt.Sprintf("k%x", rng.Int63n(1<<40))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(f, 0)
	for _, k := range keys {
		v := make([]byte, rng.Intn(120))
		rng.Read(v)
		tomb := rng.Intn(10) == 0
		if tomb {
			v = nil
		}
		if err := b.Add([]byte(k), v, tomb); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	return f
}

func fileSHA256(t testing.TB, f *vfs.File) string {
	t.Helper()
	data := make([]byte, f.Size())
	if _, err := f.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// TestTableBytesGolden pins the bytes of a table built from a seeded key
// set, one entry in ten a tombstone. It was re-pinned twice: when data
// blocks became keys first, which kept every block's entries, offset and
// pages, and when each entry's kind byte moved from the head of its value
// into the key section, when the set also gained its tombstones. Anything
// else that moves a byte here changes the format.
func TestTableBytesGolden(t *testing.T) {
	const want = "b7738c90be98e45b2620439c373d41f8f3f6a012ab439fbdfd95c1c0fffa86ec"
	f := seededTable(t, newFS(), "golden")
	if got := fileSHA256(t, f); got != want {
		t.Errorf("table sha256 %s, want %s", got, want)
	}
}

// TestBuilderAllocsIndependentOfEntries: a build allocates per block and
// per doubling of its hash slice, not per entry.
func TestBuilderAllocsIndependentOfEntries(t *testing.T) {
	for _, n := range []int{10000, 40000} {
		keys, vals := make([][]byte, n), make([][]byte, n)
		for i := range keys {
			keys[i], vals[i] = key(i), val(i)
		}
		fs := newFS()
		allocs := testing.AllocsPerRun(3, func() {
			f, err := fs.Create("t")
			if err != nil {
				t.Fatal(err)
			}
			b := NewBuilder(f, 0)
			for i := range keys {
				if err := b.Add(keys[i], vals[i], false); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Finish(); err != nil {
				t.Fatal(err)
			}
			fs.Remove("t")
		})
		if perAdd := allocs / float64(n); perAdd >= 0.1 {
			t.Errorf("%d entries: %.0f allocations, %.3f per Add, want < 0.1", n, allocs, perAdd)
		}
	}
}

// TestTableGetAllocFree: a point lookup allocates nothing, whether the
// bloom filter rejects the key, the key is found, or the filter lets it
// through and the block scan misses.
func TestTableGetAllocFree(t *testing.T) {
	tbl := buildTable(t, newFS(), "t", 5000)
	var passes []byte // absent, inside the key range, and not stopped by the bloom
	for i := 0; passes == nil; i++ {
		k := []byte(fmt.Sprintf("key%08dx", i))
		if i >= 4999 {
			t.Fatal("no absent key passes the bloom filter")
		}
		if tbl.bloom.MayContain(k) {
			passes = k
		}
	}
	stopped := []byte("absent")
	if tbl.bloom.MayContain(stopped) {
		t.Fatal("pick another bloom-rejected key")
	}
	for _, c := range []struct {
		name string
		key  []byte
		ok   bool
	}{
		{"bloom miss", stopped, false},
		{"hit", key(2500), true},
		{"miss in block", passes, false},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, ok, err := tbl.Get(c.key); ok != c.ok || err != nil {
				t.Fatalf("%s: Get = %v, %v", c.name, ok, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per Get, want 0", c.name, allocs)
		}
	}
}

// coldEntries is the size of coldTable: 120 000 entries of 400-byte
// values, ~55 MB, far larger than a core's own caches.
const coldEntries = 120000

// coldTable builds the table BenchmarkScan, BenchmarkGetCold and
// BenchmarkBlockFor read, under the keys keyOf gives.
func coldTable(b *testing.B, keyOf func(int) []byte) *Table {
	f, _ := newFS().Create("t")
	bld := NewBuilder(f, 0)
	value := bytes.Repeat([]byte("v"), 400)
	for i := 0; i < coldEntries; i++ {
		if err := bld.Add(keyOf(i), value, false); err != nil {
			b.Fatal(err)
		}
	}
	if err := bld.Finish(); err != nil {
		b.Fatal(err)
	}
	tbl, err := Open(f)
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

// BenchmarkScan steps an iterator through coldTable, wrapping around, so
// nearly every block it loads is cold. A step reads the key section only:
// each entry's kind sits beside its key, so no value line is loaded.
func BenchmarkScan(b *testing.B) {
	it := coldTable(b, key).NewIterator()
	it.SeekToFirst()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !it.Valid() {
			it.SeekToFirst()
		}
		it.Next()
	}
}

// BenchmarkGetCold looks up coldTable's keys in random order: nearly every
// lookup lands in a block not in the core's own caches, so it measures the
// misses a point read costs. BenchmarkGet's 10 000-entry table stays
// cached.
func BenchmarkGetCold(b *testing.B) {
	tbl := coldTable(b, key)
	keys := make([][]byte, coldEntries)
	for i := range keys {
		keys[i] = key(i)
	}
	order := rand.New(rand.NewSource(1)).Perm(coldEntries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok, err := tbl.Get(keys[order[i%coldEntries]]); !ok || err != nil {
			b.Fatalf("Get: %v, %v", ok, err)
		}
	}
}

// BenchmarkBlockFor times the index search alone, over coldTable with
// 15-byte keys looked up in random order: a binary search over the
// index entries (the blocks metric), whose lastKeys alias the table's
// index section.
func BenchmarkBlockFor(b *testing.B) {
	key15 := func(i int) []byte { return []byte(fmt.Sprintf("key%012d", i)) }
	tbl := coldTable(b, key15)
	keys := make([][]byte, coldEntries)
	for i := range keys {
		keys[i] = key15(i)
	}
	order := rand.New(rand.NewSource(1)).Perm(coldEntries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bi := tbl.blockFor(keys[order[i%coldEntries]]); bi >= len(tbl.index) {
			b.Fatalf("blockFor put a stored key past the last of %d blocks", len(tbl.index))
		}
	}
	b.ReportMetric(float64(len(tbl.index)), "blocks")
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

// refReadBlock is an allocating decoder of the keys-first block layout,
// written without the codec — a fresh raw buffer and a fresh entry slice
// per block, offsets instead of slicing — kept as the reference the
// in-place one is compared against. refBlockEntries does the decoding.
func refReadBlock(t *Table, i int) ([]entry, error) {
	e := t.index[i]
	raw := make([]byte, e.length)
	if _, err := t.f.ReadAt(raw, e.off); err != nil {
		return nil, fmt.Errorf("%w: block %d: %v", ErrBadTable, i, err)
	}
	out, _, err := refBlockEntries(raw, i, nil)
	return out, err
}

// refBlockEntries decodes block i from raw: a uvarint key-section length,
// that many bytes of (uvarint klen, key, kind byte 0 or 1, uvarint vlen)
// entries, then the values back to back, which must fill the rest of the
// block. If stop is not nil it is called after each entry and ends the
// decode, without the check that the values fill the block, when it
// returns true; done then reports that it did.
func refBlockEntries(raw []byte, i int, stop func(entry) bool) (out []entry, done bool, err error) {
	klen, n := binary.Uvarint(raw)
	if n <= 0 || klen > uint64(len(raw)-n) {
		return nil, false, fmt.Errorf("%w: block %d keys", ErrBadTable, i)
	}
	keys := raw[n : n+int(klen)]
	vals := raw[n+int(klen):]
	voff := 0
	for pos := 0; pos < len(keys); {
		kl, n := binary.Uvarint(keys[pos:])
		if n <= 0 || kl > uint64(len(keys)-pos-n) {
			return nil, false, fmt.Errorf("%w: block %d entry", ErrBadTable, i)
		}
		pos += n
		key := keys[pos : pos+int(kl) : pos+int(kl)]
		pos += int(kl)
		if pos == len(keys) || keys[pos] > 1 {
			return nil, false, fmt.Errorf("%w: block %d kind or value", ErrBadTable, i)
		}
		tomb := keys[pos] == 1
		pos++
		vl, n := binary.Uvarint(keys[pos:])
		if n <= 0 || vl > uint64(len(vals)-voff) {
			return nil, false, fmt.Errorf("%w: block %d kind or value", ErrBadTable, i)
		}
		pos += n
		val := vals[voff : voff+int(vl) : voff+int(vl)]
		voff += int(vl)
		out = append(out, entry{key: key, value: val, tombstone: tomb})
		if stop != nil && stop(out[len(out)-1]) {
			return out, true, nil
		}
	}
	if voff != len(vals) && stop == nil {
		return nil, false, fmt.Errorf("%w: block %d values", ErrBadTable, i)
	}
	return out, false, nil
}

// kindOffsets returns the file offset of every entry's kind byte in the
// table image img, found by walking each block's key section with
// binary.Uvarint.
func kindOffsets(tb testing.TB, img []byte) []int64 {
	tb.Helper()
	tbl, err := Open(fileOf(tb, newFS(), "t", img))
	if err != nil {
		tb.Fatal(err)
	}
	var out []int64
	for _, e := range tbl.index {
		raw := img[e.off : e.off+e.length]
		klen, n := binary.Uvarint(raw)
		keys := raw[n : n+int(klen)]
		for pos := 0; pos < len(keys); {
			kl, m := binary.Uvarint(keys[pos:])
			pos += m + int(kl)
			out = append(out, e.off+int64(n+pos))
			_, m = binary.Uvarint(keys[pos+1:])
			pos += 1 + m
		}
	}
	return out
}

func sameEntries(a, b []entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].key, b[i].key) || !bytes.Equal(a[i].value, b[i].value) || a[i].tombstone != b[i].tombstone {
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
		if len(tbl.index) < 64 {
			t.Fatalf("%d entries make only %d blocks", n, len(tbl.index))
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
			t.Errorf("%d blocks: forward scan allocates %.0f, reverse %.0f, want <= 4 each", len(tbl.index), fwd, rev)
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
	if len(tbl.index) < 3 {
		t.Fatalf("need several blocks, have %d", len(tbl.index))
	}
	var want []entry
	for i := 0; i < len(tbl.index); i++ {
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
				key:       append([]byte(nil), it.Key()...),
				value:     append([]byte(nil), it.Value()...),
				tombstone: it.Tombstone(),
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
// of a data block, and every entry's kind byte in it, and checks the
// in-place decoder against the allocating one: same error or same entries,
// with the block storage reused (and so dirty) from one mutation to the
// next. A kind byte other than 0 or 1 must be rejected.
func TestReadBlockRejectsWhatTheReferenceRejects(t *testing.T) {
	tbl := buildTable(t, newFS(), "t", 500)
	f := tbl.File()
	e := tbl.index[0]
	var positions []int64
	for pos := int64(0); pos < 256 && pos < e.length; pos++ {
		positions = append(positions, pos)
	}
	kinds := make(map[int64]bool)
	for _, off := range kindOffsets(t, fileBytes(t, f)) {
		if off < e.off+e.length {
			kinds[off-e.off] = true
			positions = append(positions, off-e.off)
		}
	}
	var b block
	rejected, badKinds := 0, 0
	for _, pos := range positions {
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
			if kinds[pos] && mut > 1 {
				if gotErr == nil {
					t.Fatalf("kind byte %d = %#x: readBlock accepted it", pos, mut)
				}
				badKinds++
			}
		}
		if _, err := f.WriteAt(orig[:], e.off+pos); err != nil {
			t.Fatal(err)
		}
	}
	if rejected == 0 || len(kinds) < 2 || badKinds < 3*len(kinds) {
		t.Errorf("%d mutations rejected, %d of them bad kinds over %d entries; the test corrupts too little", rejected, badKinds, len(kinds))
	}
}

// TestValueBytesDecideNoKind overwrites every values-section byte of a
// table that holds both kinds with 0xFF: what Get finds (ok and
// tombstone) for every key and for absent ones, and every scanned key
// and kind, must not change, since the kind lives in the key section.
func TestValueBytesDecideNoKind(t *testing.T) {
	f := seededTable(t, newFS(), "t")
	tbl, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	type found struct{ tomb, ok bool }
	lookups := func() (gets []found, scan []entry) {
		it := tbl.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			scan = append(scan, entry{key: append([]byte(nil), it.Key()...), tombstone: it.Tombstone()})
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		for _, e := range append(scan, entry{key: []byte("k")}, entry{key: []byte("k~")}) {
			_, tomb, ok, err := tbl.Get(e.key)
			if err != nil {
				t.Fatal(err)
			}
			gets = append(gets, found{tomb, ok})
		}
		return gets, scan
	}
	wantGets, wantScan := lookups()
	tombs := 0
	for _, e := range wantScan {
		if e.tombstone {
			tombs++
		}
	}
	if tombs == 0 || tombs == len(wantScan) {
		t.Fatalf("%d of %d entries are tombstones; the table needs both kinds", tombs, len(wantScan))
	}
	overwritten := 0
	for i, e := range tbl.index {
		_, values, err := tbl.view(i)
		if err != nil {
			t.Fatal(err)
		}
		at := e.off + e.length - int64(len(values))
		if _, err := f.WriteAt(bytes.Repeat([]byte{0xFF}, len(values)), at); err != nil {
			t.Fatal(err)
		}
		overwritten += len(values)
	}
	if overwritten == 0 {
		t.Fatal("the table has no value bytes")
	}
	gotGets, gotScan := lookups()
	if fmt.Sprint(gotGets) != fmt.Sprint(wantGets) || !sameEntries(gotScan, wantScan) {
		t.Fatalf("after overwriting %d value bytes: lookups %v, want %v; or the scan's keys and kinds moved", overwritten, gotGets, wantGets)
	}
	for _, e := range wantScan {
		if v, _, _, _ := tbl.Get(e.key); bytes.Count(v, []byte{0xFF}) != len(v) {
			t.Fatalf("Get(%q) = %x after the overwrite, want only 0xFF bytes", e.key, v)
		}
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
