package kvstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/pagecache"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

func newFS() *vfs.FS {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	cache := pagecache.New(pagecache.Config{CapacityPages: 1 << 18}, clk, dev, nil)
	return vfs.New(cache)
}

func openDB(t testing.TB, fs *vfs.FS, opts Options) *DB {
	t.Helper()
	db, err := Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func k(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }
func v(i int) []byte { return []byte(fmt.Sprintf("val%08d-%032d", i, i)) }

func TestPutGet(t *testing.T) {
	db := openDB(t, newFS(), Options{})
	for i := 0; i < 100; i++ {
		if err := db.Put(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		got, ok, err := db.Get(k(i))
		if err != nil || !ok {
			t.Fatalf("Get(%d): %v %v", i, ok, err)
		}
		if !bytes.Equal(got, v(i)) {
			t.Errorf("Get(%d) = %q", i, got)
		}
	}
	if _, ok, _ := db.Get([]byte("missing")); ok {
		t.Error("found missing key")
	}
}

func TestOverwrite(t *testing.T) {
	db := openDB(t, newFS(), Options{})
	db.Put(k(1), []byte("old"))
	db.Put(k(1), []byte("new"))
	got, ok, _ := db.Get(k(1))
	if !ok || string(got) != "new" {
		t.Errorf("got %q", got)
	}
}

func TestDelete(t *testing.T) {
	db := openDB(t, newFS(), Options{})
	db.Put(k(1), v(1))
	db.Delete(k(1))
	if _, ok, _ := db.Get(k(1)); ok {
		t.Error("deleted key still visible")
	}
	// Delete of a missing key is fine; key stays missing.
	db.Delete(k(2))
	if _, ok, _ := db.Get(k(2)); ok {
		t.Error("tombstoned missing key visible")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	db := openDB(t, newFS(), Options{})
	if err := db.Put(nil, v(1)); err == nil {
		t.Error("empty key Put must error")
	}
	if err := db.Delete(nil); err == nil {
		t.Error("empty key Delete must error")
	}
}

func TestFlushMovesDataToTables(t *testing.T) {
	db := openDB(t, newFS(), Options{MemtableBytes: 1 << 10})
	for i := 0; i < 200; i++ {
		db.Put(k(i), v(i))
	}
	if db.Tables() == 0 {
		t.Fatal("no flush happened")
	}
	if db.Stats().Flushes == 0 {
		t.Error("flush counter")
	}
	// All keys still visible across memtable + tables.
	for i := 0; i < 200; i++ {
		if _, ok, err := db.Get(k(i)); !ok || err != nil {
			t.Fatalf("Get(%d) after flush: %v %v", i, ok, err)
		}
	}
}

func TestDeleteShadowsFlushedValue(t *testing.T) {
	db := openDB(t, newFS(), Options{})
	db.Put(k(1), v(1))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Delete(k(1))
	if _, ok, _ := db.Get(k(1)); ok {
		t.Error("memtable tombstone must shadow flushed value")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get(k(1)); ok {
		t.Error("flushed tombstone must shadow older table value")
	}
}

func TestIncrementalCompactionBoundsRuns(t *testing.T) {
	db := openDB(t, newFS(), Options{CompactionRuns: 3})
	for round := 0; round < 6; round++ {
		for i := round * 100; i < (round+1)*100; i++ {
			db.Put(k(i), v(i))
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		// Incremental compaction merges a pair whenever the run count
		// reaches the threshold, so it never exceeds it.
		if db.Tables() > 3 {
			t.Fatalf("tables = %d after flush %d", db.Tables(), round)
		}
	}
	if db.Stats().Compactions == 0 {
		t.Error("compaction counter")
	}
	for i := 0; i < 600; i++ {
		if _, ok, _ := db.Get(k(i)); !ok {
			t.Fatalf("key %d lost in compaction", i)
		}
	}
}

func TestFullCompactMergesToOneRun(t *testing.T) {
	db := openDB(t, newFS(), Options{CompactionRuns: 100})
	for round := 0; round < 3; round++ {
		for i := round * 100; i < (round+1)*100; i++ {
			db.Put(k(i), v(i))
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if db.Tables() != 3 {
		t.Fatalf("tables = %d before full compact", db.Tables())
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.Tables() != 1 {
		t.Fatalf("tables = %d after full compaction", db.Tables())
	}
	for i := 0; i < 300; i++ {
		if _, ok, _ := db.Get(k(i)); !ok {
			t.Fatalf("key %d lost in compaction", i)
		}
	}
}

func TestCompactPairKeepsShadowingWithOlderRuns(t *testing.T) {
	// Write key in the oldest run, tombstone it in a middle run, and make
	// sure merging runs that do NOT include the oldest keeps the tombstone.
	db := openDB(t, newFS(), Options{CompactionRuns: 100})
	db.Put(k(1), []byte("oldest"))
	db.Flush()
	db.Delete(k(1))
	db.Flush()
	db.Put(k(2), v(2))
	db.Flush()
	db.Put(k(3), v(3))
	db.Flush()
	// Merge the two newest runs (smallest pair is adjacent among new ones);
	// force pair compactions until only two runs remain.
	for db.Tables() > 2 {
		if err := db.compactPair(); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := db.Get(k(1)); ok {
		t.Fatal("tombstone lost: deleted key resurrected from oldest run")
	}
}

func TestCompactionDropsTombstones(t *testing.T) {
	db := openDB(t, newFS(), Options{CompactionRuns: 100})
	for i := 0; i < 50; i++ {
		db.Put(k(i), v(i))
	}
	db.Flush()
	for i := 0; i < 50; i++ {
		db.Delete(k(i))
	}
	db.Flush()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.Tables() != 0 {
		t.Errorf("tables = %d; fully-deleted DB should have none", db.Tables())
	}
	for i := 0; i < 50; i++ {
		if _, ok, _ := db.Get(k(i)); ok {
			t.Fatal("deleted key resurrected")
		}
	}
}

func TestWALRecovery(t *testing.T) {
	fs := newFS()
	db := openDB(t, fs, Options{})
	db.Put(k(1), v(1))
	db.Put(k(2), v(2))
	db.Delete(k(1))
	// Reopen without flushing: the WAL must rebuild the memtable.
	db2 := openDB(t, fs, Options{})
	if _, ok, _ := db2.Get(k(1)); ok {
		t.Error("recovered deleted key")
	}
	got, ok, _ := db2.Get(k(2))
	if !ok || !bytes.Equal(got, v(2)) {
		t.Error("lost unflushed write")
	}
}

func TestReopenWithTables(t *testing.T) {
	fs := newFS()
	db := openDB(t, fs, Options{})
	for i := 0; i < 100; i++ {
		db.Put(k(i), v(i))
	}
	db.Flush()
	db.Put(k(100), v(100)) // unflushed
	db2 := openDB(t, fs, Options{})
	for i := 0; i <= 100; i++ {
		if _, ok, _ := db2.Get(k(i)); !ok {
			t.Fatalf("key %d lost across reopen", i)
		}
	}
}

func TestIteratorForward(t *testing.T) {
	db := openDB(t, newFS(), Options{MemtableBytes: 1 << 12})
	const n = 500
	for i := 0; i < n; i++ {
		db.Put(k(i), v(i))
	}
	it := db.NewIterator()
	it.SeekToFirst()
	count := 0
	for it.Valid() {
		if !bytes.Equal(it.m.key(), k(count)) {
			t.Fatalf("key %d: got %q", count, it.m.key())
		}
		if !bytes.Equal(it.m.value(), v(count)) {
			t.Fatalf("value %d mismatch", count)
		}
		count++
		it.Next()
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("iterated %d", count)
	}
}

func TestIteratorReverse(t *testing.T) {
	db := openDB(t, newFS(), Options{MemtableBytes: 1 << 12})
	const n = 500
	for i := 0; i < n; i++ {
		db.Put(k(i), v(i))
	}
	it := db.NewReverseIterator()
	it.SeekToLast()
	count := n - 1
	for it.Valid() {
		if !bytes.Equal(it.m.key(), k(count)) {
			t.Fatalf("reverse key %d: got %q", count, it.m.key())
		}
		count--
		it.Next()
	}
	if count != -1 {
		t.Errorf("reverse stopped at %d", count)
	}
}

func TestIteratorMergesNewestWins(t *testing.T) {
	db := openDB(t, newFS(), Options{})
	db.Put(k(1), []byte("old"))
	db.Flush()
	db.Put(k(1), []byte("new")) // newer, in memtable
	it := db.NewIterator()
	it.SeekToFirst()
	if !it.Valid() || string(it.m.value()) != "new" {
		t.Errorf("merge picked %q", it.m.value())
	}
	it.Next()
	if it.Valid() {
		t.Error("duplicate key visible twice")
	}
}

func TestIteratorSkipsTombstones(t *testing.T) {
	db := openDB(t, newFS(), Options{})
	for i := 0; i < 10; i++ {
		db.Put(k(i), v(i))
	}
	db.Flush()
	db.Delete(k(5))
	it := db.NewIterator()
	it.SeekToFirst()
	seen := 0
	for it.Valid() {
		if bytes.Equal(it.m.key(), k(5)) {
			t.Fatal("tombstoned key visible")
		}
		seen++
		it.Next()
	}
	if seen != 9 {
		t.Errorf("saw %d keys", seen)
	}
}

func TestIteratorSeek(t *testing.T) {
	db := openDB(t, newFS(), Options{})
	for i := 0; i < 100; i += 2 { // even keys only
		db.Put(k(i), v(i))
	}
	db.Flush()
	it := db.NewIterator()
	it.Seek(k(50))
	if !it.Valid() || !bytes.Equal(it.m.key(), k(50)) {
		t.Error("seek exact")
	}
	it.Seek(k(51)) // odd: next even is 52
	if !it.Valid() || !bytes.Equal(it.m.key(), k(52)) {
		t.Errorf("seek between: %q", it.m.key())
	}
	rit := db.NewReverseIterator()
	rit.Seek(k(51)) // last key ≤ 51 is 50
	if !rit.Valid() || !bytes.Equal(rit.m.key(), k(50)) {
		t.Errorf("reverse seek: %q", rit.m.key())
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := openDB(t, newFS(), Options{MemtableBytes: 1 << 12, CompactionRuns: 3})
	oracle := make(map[string]string)
	for op := 0; op < 5000; op++ {
		key := k(rng.Intn(300))
		switch rng.Intn(10) {
		case 0, 1:
			if err := db.Delete(key); err != nil {
				t.Fatal(err)
			}
			delete(oracle, string(key))
		default:
			val := v(rng.Intn(1 << 20))
			if err := db.Put(key, val); err != nil {
				t.Fatal(err)
			}
			oracle[string(key)] = string(val)
		}
		if op%500 == 0 {
			db.Flush()
		}
	}
	// Point-check every key.
	for i := 0; i < 300; i++ {
		key := k(i)
		got, ok, err := db.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		want, exists := oracle[string(key)]
		if ok != exists {
			t.Fatalf("key %d: ok=%v, oracle=%v", i, ok, exists)
		}
		if ok && string(got) != want {
			t.Fatalf("key %d: %q != %q", i, got, want)
		}
	}
	// Full scan must match the oracle exactly, in order.
	it := db.NewIterator()
	it.SeekToFirst()
	var prev []byte
	scanCount := 0
	for it.Valid() {
		if prev != nil && bytes.Compare(it.m.key(), prev) <= 0 {
			t.Fatal("scan out of order")
		}
		want, exists := oracle[string(it.m.key())]
		if !exists || want != string(it.m.value()) {
			t.Fatalf("scan key %q mismatch", it.m.key())
		}
		prev = append(prev[:0], it.m.key()...)
		scanCount++
		it.Next()
	}
	if scanCount != len(oracle) {
		t.Fatalf("scan saw %d keys, oracle has %d", scanCount, len(oracle))
	}
}

func TestMemtableBasics(t *testing.T) {
	m := newMemtable(1)
	m.put([]byte("b"), []byte("2"), false)
	m.put([]byte("a"), []byte("1"), false)
	m.put([]byte("c"), []byte("3"), false)
	if m.len() != 3 {
		t.Errorf("len = %d", m.len())
	}
	val, tomb, ok := m.get([]byte("b"))
	if !ok || tomb || string(val) != "2" {
		t.Error("get b")
	}
	// Update in place.
	m.put([]byte("b"), []byte("22"), false)
	if m.len() != 3 {
		t.Error("update must not add")
	}
	val, _, _ = m.get([]byte("b"))
	if string(val) != "22" {
		t.Error("update value")
	}
	// Entries are sorted.
	es := m.entries()
	if len(es) != 3 || string(es[0].key) != "a" || string(es[2].key) != "c" {
		t.Errorf("entries %v", es)
	}
	if _, _, ok := m.get([]byte("zz")); ok {
		t.Error("missing key found")
	}
}

func TestMemtableManyKeysSorted(t *testing.T) {
	m := newMemtable(7)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		m.put(k(rng.Intn(1000)), v(i), false)
	}
	es := m.entries()
	for i := 1; i < len(es); i++ {
		if bytes.Compare(es[i-1].key, es[i].key) >= 0 {
			t.Fatal("skiplist out of order")
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create("wal")
	w := newWAL(f, false)
	w.append(walPut, []byte("k1"), []byte("v1"))
	w.append(walDelete, []byte("k2"), nil)
	recs, err := replayWAL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0].kind != walPut || string(recs[0].key) != "k1" || string(recs[0].value) != "v1" {
		t.Error("record 0")
	}
	if recs[1].kind != walDelete || string(recs[1].key) != "k2" {
		t.Error("record 1")
	}
}

func TestWALRejectsGarbage(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create("wal")
	f.WriteAt([]byte{99, 1, 2, 3}, 0)
	if _, err := replayWAL(f); err == nil {
		t.Error("garbage WAL must error")
	}
}

func BenchmarkGetCold(b *testing.B) {
	fs := newFS()
	db := openDB(b, fs, Options{})
	for i := 0; i < 10000; i++ {
		db.Put(k(i), v(i))
	}
	db.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get(k(i % 10000))
	}
}

func BenchmarkPut(b *testing.B) {
	db := openDB(b, newFS(), Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Put(k(i%100000), v(i))
	}
}

// BenchmarkCompactPair merges two 20 000-entry runs that overlap on every
// other key, one with a tombstone in every tenth of its keys: one merge,
// one table build and the reopen per iteration.
func BenchmarkCompactPair(b *testing.B) {
	const n = 20000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := openDB(b, newFS(), Options{MemtableBytes: 1 << 30, CompactionRuns: 1 << 30})
		for j := 0; j < n; j++ {
			db.Put(k(2*j), v(j))
		}
		db.Flush()
		for j := 0; j < n; j++ {
			if j%10 == 0 {
				db.Delete(k(j))
			} else {
				db.Put(k(j), v(j+1))
			}
		}
		db.Flush()
		b.StartTimer()
		if err := db.compactPair(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReopenPastSixDigitSequence: table names pad the sequence number to
// six digits and keep going past 999 999, so a reopen must read every
// width and order the runs by number, not by name. A file that only looks
// like a table is not reattached.
func TestReopenPastSixDigitSequence(t *testing.T) {
	fs := newFS()
	db := openDB(t, fs, Options{CompactionRuns: 100})
	db.seq = 999_998
	oracle := make(map[string]string)
	for round := 0; round < 3; round++ { // tables 999 999, 1 000 000 and 1 000 001
		for i := 0; i < 50; i++ {
			key, val := k(round*25+i), v(round*1000+i) // overlapping rounds: newer must win
			db.Put(key, val)
			oracle[string(key)] = string(val)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	junk, _ := fs.Create("kml-000007.sst.bak")
	junk.WriteAt([]byte("not a table"), 0)
	reopened := openDB(t, fs, Options{CompactionRuns: 100})
	if reopened.Tables() != 3 || reopened.seq != 1_000_001 {
		t.Fatalf("reopened %d tables at seq %d, want 3 at 1000001", reopened.Tables(), reopened.seq)
	}
	for key, want := range oracle {
		got, ok, err := reopened.Get([]byte(key))
		if err != nil || !ok || string(got) != want {
			t.Errorf("Get(%s) after reopen = %q, %v, %v; want %q", key, got, ok, err, want)
		}
	}
	if err := reopened.Flush(); err != nil { // a new table must not reuse a name
		t.Fatal(err)
	}
}

func TestTableSeq(t *testing.T) {
	for name, want := range map[string]int{
		"kml-000001.sst": 1, "kml-999999.sst": 999_999, "kml-1000000.sst": 1_000_000,
		"kml-1234567.sst": 1_234_567, "kml-7.sst": 7,
	} {
		if got, ok := tableSeq(name); !ok || got != want {
			t.Errorf("tableSeq(%q) = %d, %v; want %d", name, got, ok, want)
		}
		if back, _ := tableSeq(tableName(want)); back != want {
			t.Errorf("tableName(%d) does not parse back", want)
		}
	}
	for _, name := range []string{
		"kml-000007.sst.bak", "kml-.sst", "kml-x7.sst", "kml-+7.sst", "kml--7.sst",
		"kml-7.ss", "xkml-7.sst", "kml.wal", "kml-99999999999999999999.sst",
	} {
		if seq, ok := tableSeq(name); ok {
			t.Errorf("tableSeq(%q) = %d, want rejected", name, seq)
		}
	}
}

// TestDBFilesGolden pins the bytes of every file a DB leaves after a
// seeded sequence of puts, deletes, flushes, pair compactions and a full
// compaction. It was re-pinned once, when sstable data blocks became keys
// first: the file names, sizes and WAL bytes stayed, only the two tables'
// block bytes moved. Flush, compaction and the WAL must not move a byte.
func TestDBFilesGolden(t *testing.T) {
	const want = "661c53e0830438c8695fa3e8977a1f0f8957a0b02836b13673fcecc2c224ae3d"
	fs := newFS()
	db := openDB(t, fs, Options{MemtableBytes: 1 << 13, CompactionRuns: 3, Seed: 5})
	rng := rand.New(rand.NewSource(5))
	for op := 0; op < 6000; op++ {
		key := k(rng.Intn(1500))
		var err error
		if rng.Intn(8) == 0 {
			err = db.Delete(key)
		} else {
			err = db.Put(key, v(rng.Intn(1<<20)))
		}
		if err != nil {
			t.Fatal(err)
		}
		if op == 4000 {
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if db.Stats().Compactions < 3 {
		t.Fatalf("only %d compactions; the sequence exercises too little", db.Stats().Compactions)
	}
	names := fs.Names()
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		f, _ := fs.Open(name)
		data := make([]byte, f.Size())
		if _, err := f.ReadAt(data, 0); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(data))
		h.Write(data)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("DB files (%v) sha256 %s, want %s", names, got, want)
	}
}

// TestMergeIteratorOverReusedBlocks drives the merge over two overlapping
// multi-block tables and a memtable — every table source now hands out
// keys and values that alias a buffer it overwrites at its next block —
// and checks both scan directions against a map oracle built from copies.
// pick holds one source's key while it advances the others; that is safe
// only because each source owns its storage.
func TestMergeIteratorOverReusedBlocks(t *testing.T) {
	db := openDB(t, newFS(), Options{MemtableBytes: 1 << 30, CompactionRuns: 1 << 30})
	oracle := make(map[string]string)
	put := func(i, gen int) {
		t.Helper()
		val := v(i*10 + gen)
		if err := db.Put(k(i), val); err != nil {
			t.Fatal(err)
		}
		oracle[string(k(i))] = string(val)
	}
	del := func(i int) {
		t.Helper()
		if err := db.Delete(k(i)); err != nil {
			t.Fatal(err)
		}
		delete(oracle, string(k(i)))
	}
	const n = 3000
	for i := 0; i < n; i += 2 { // oldest run: the even keys
		put(i, 0)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 3 { // newer run: shadows every sixth key, deletes some
		if i%5 == 0 {
			del(i)
		} else {
			put(i, 1)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 7 { // memtable on top
		if i%2 == 0 {
			del(i)
		} else {
			put(i, 2)
		}
	}
	if db.Tables() != 2 {
		t.Fatalf("%d tables, want 2", db.Tables())
	}
	for _, tbl := range db.tables {
		if size := tbl.File().Size(); size < 8*sstable.DefaultBlockSize {
			t.Fatalf("table has %d bytes, want several blocks", size)
		}
	}
	keys := make([]string, 0, len(oracle))
	for key := range oracle {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	check := func(name string, it *Iterator, want []string) {
		t.Helper()
		i := 0
		for ; it.Valid(); it.Next() {
			if i >= len(want) {
				t.Fatalf("%s: extra key %q", name, it.m.key())
			}
			if string(it.m.key()) != want[i] || string(it.m.value()) != oracle[want[i]] {
				t.Fatalf("%s: entry %d is %q=%q, want %q=%q", name, i, it.m.key(), it.m.value(), want[i], oracle[want[i]])
			}
			i++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if i != len(want) {
			t.Fatalf("%s: saw %d keys, want %d", name, i, len(want))
		}
	}
	fwd := db.NewIterator()
	fwd.SeekToFirst()
	check("forward", fwd, keys)
	fwd.Seek([]byte(keys[len(keys)/2]))
	check("forward from seek", fwd, keys[len(keys)/2:])

	reversed := make([]string, len(keys))
	for i, key := range keys {
		reversed[len(keys)-1-i] = key
	}
	rev := db.NewReverseIterator()
	rev.SeekToLast()
	check("reverse", rev, reversed)
	rev.Seek([]byte(reversed[len(keys)/3]))
	check("reverse from seek", rev, reversed[len(keys)/3:])

	// Compaction consumes the same merge; its output must hold the same data.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	fwd = db.NewIterator()
	fwd.SeekToFirst()
	check("after compaction", fwd, keys)
}
