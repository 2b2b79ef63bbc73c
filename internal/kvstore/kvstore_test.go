package kvstore

import (
	"bytes"
	"crypto/sha256"
	"errors"
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
	// Scans and seeks in both directions must match the oracle exactly.
	seeks := make([][]byte, 100)
	for i := range seeks {
		seeks[i] = k(rng.Intn(310) - 5) // some before the first key, some past the last
	}
	checkAgainstOracle(t, db, oracle, seeks)
}

// checkScan steps it to its end and requires exactly the keys want, in
// order, with the oracle's values, and no error.
func checkScan(t testing.TB, name string, it *Iterator, want []string, oracle map[string]string) {
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
		t.Fatalf("%s: %v", name, err)
	}
	if i != len(want) {
		t.Fatalf("%s: saw %d keys, want %d", name, i, len(want))
	}
}

// reversed returns keys in reverse order.
func reversed(keys []string) []string {
	out := make([]string, len(keys))
	for i, key := range keys {
		out[len(keys)-1-i] = key
	}
	return out
}

// checkAgainstOracle requires db's full scans in both directions, and a
// forward and a reverse Seek to each of seeks, to give the sorted oracle's
// sequences with its values.
func checkAgainstOracle(t testing.TB, db *DB, oracle map[string]string, seeks [][]byte) {
	t.Helper()
	keys := make([]string, 0, len(oracle))
	for key := range oracle {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	fwd := db.NewIterator()
	fwd.SeekToFirst()
	checkScan(t, "forward", fwd, keys, oracle)
	rev := db.NewReverseIterator()
	rev.SeekToLast()
	checkScan(t, "reverse", rev, reversed(keys), oracle)
	for _, s := range seeks {
		ge := sort.SearchStrings(keys, string(s))                                     // first key ≥ s
		gt := sort.Search(len(keys), func(i int) bool { return keys[i] > string(s) }) // first key > s
		it := db.NewIterator()
		it.Seek(s)
		checkScan(t, fmt.Sprintf("forward seek %q", s), it, keys[ge:], oracle)
		it = db.NewReverseIterator()
		it.Seek(s)
		checkScan(t, fmt.Sprintf("reverse seek %q", s), it, reversed(keys[:gt]), oracle)
	}
}

// TestIteratorEdgeSources iterates DBs whose merge has no source, only a
// memtable, or only tables whose every entry is deleted: each scan and
// seek, in both directions, gives the oracle's sequence or none, and no
// error.
func TestIteratorEdgeSources(t *testing.T) {
	const n = 40
	seeks := [][]byte{k(-1), k(0), k(n / 2), k(n - 1), k(n + 1)}
	putAll := func(t *testing.T, db *DB, oracle map[string]string) {
		for i := 0; i < n; i++ {
			if err := db.Put(k(i), v(i)); err != nil {
				t.Fatal(err)
			}
			oracle[string(k(i))] = string(v(i))
		}
	}
	deleteAll := func(t *testing.T, db *DB, oracle map[string]string) {
		for i := 0; i < n; i++ {
			if err := db.Delete(k(i)); err != nil {
				t.Fatal(err)
			}
			delete(oracle, string(k(i)))
		}
	}
	flush := func(t *testing.T, db *DB) {
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		tables int
		build  func(t *testing.T, db *DB, oracle map[string]string)
	}{
		{"empty", 0, func(*testing.T, *DB, map[string]string) {}},
		{"memtable only", 0, putAll},
		{"deleted, one tombstone run", 1, func(t *testing.T, db *DB, o map[string]string) {
			putAll(t, db, o)
			deleteAll(t, db, o)
			flush(t, db)
		}},
		{"deleted, two runs", 2, func(t *testing.T, db *DB, o map[string]string) {
			putAll(t, db, o)
			flush(t, db)
			deleteAll(t, db, o)
			flush(t, db)
		}},
		{"deleted, compacted", 0, func(t *testing.T, db *DB, o map[string]string) {
			putAll(t, db, o)
			flush(t, db)
			deleteAll(t, db, o)
			flush(t, db)
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := openDB(t, newFS(), Options{})
			oracle := make(map[string]string)
			c.build(t, db, oracle)
			if db.Tables() != c.tables {
				t.Fatalf("%d tables, want %d", db.Tables(), c.tables)
			}
			// An empty memtable adds no source, and one table alone is
			// stepped directly.
			m := db.NewIterator().m
			sources := db.Tables()
			if db.mem.len() > 0 {
				sources++
			}
			if len(m.sources) != sources || (m.one != nil) != (sources == 1 && db.Tables() == 1) {
				t.Fatalf("merge of %d sources (direct %v), want %d", len(m.sources), m.one != nil, sources)
			}
			checkAgainstOracle(t, db, oracle, seeks)
			if len(oracle) > 0 {
				return
			}
			// Nothing is live: every positioning call finds nothing.
			for _, it := range []*Iterator{db.NewIterator(), db.NewReverseIterator()} {
				for _, seek := range []func(){it.SeekToFirst, it.SeekToLast, func() { it.Seek(k(n / 2)) }} {
					seek()
					if it.Valid() || it.Err() != nil {
						t.Fatalf("valid=%v err=%v on a DB with no live key", it.Valid(), it.Err())
					}
				}
			}
		})
	}
}

// countingSource is a memtable source that counts the calls a merge makes
// into it: reads of its key and moves (next, prev).
type countingSource struct {
	memSource
	reads, moves int
}

func (s *countingSource) key() []byte  { s.reads++; return s.memSource.key() }
func (s *countingSource) next() []byte { s.moves++; return s.memSource.next() }
func (s *countingSource) prev() []byte { s.moves++; return s.memSource.prev() }

// TestMergeStepTouchesOnlyMovedSources: a merge step reads only the
// sources it moves, the current one and any it steps past a shadowed
// duplicate; every other source's key is cached. Over four disjoint runs
// a step moves, and so reads, exactly one source.
func TestMergeStepTouchesOnlyMovedSources(t *testing.T) {
	const n = 400
	for _, c := range []struct {
		name     string
		holds    func(run, i int) bool
		disjoint bool
	}{
		{"disjoint", func(run, i int) bool { return i%4 == run }, true},
		{"overlapping", func(run, i int) bool { return i%(run+2) == 0 }, false},
	} {
		for _, dir := range []direction{forward, reverse} {
			name := fmt.Sprintf("%s, reverse=%v", c.name, dir == reverse)
			srcs := make([]*countingSource, 4)
			m := &mergeIterator{keys: make([][]byte, len(srcs)), dir: dir, cur: -1}
			for run := range srcs {
				srcs[run] = &countingSource{}
				m.sources = append(m.sources, srcs[run])
			}
			var want []string
			for i := 0; i < n; i++ {
				held := false
				for run, s := range srcs {
					if c.holds(run, i) {
						s.entries = append(s.entries, mentry{key: k(i)})
						held = true
					}
				}
				if held {
					want = append(want, string(k(i)))
				}
			}
			if dir == forward {
				m.SeekToFirst()
			} else {
				m.SeekToLast()
				want = reversed(want)
			}
			for step := 0; ; step++ {
				if !m.valid() {
					if step != len(want) {
						t.Fatalf("%s: %d keys, want %d", name, step, len(want))
					}
					break
				}
				if string(m.key()) != want[step] {
					t.Fatalf("%s: key %d is %q, want %q", name, step, m.key(), want[step])
				}
				for _, s := range srcs {
					s.reads, s.moves = 0, 0
				}
				m.next()
				moved := 0
				for i, s := range srcs {
					if s.reads > 0 && s.moves == 0 {
						t.Fatalf("%s, step %d: read source %d, which did not move", name, step, i)
					}
					moved += s.moves
				}
				if c.disjoint && moved != 1 {
					t.Fatalf("%s, step %d: moved %d sources, want 1", name, step, moved)
				}
			}
		}
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

// BenchmarkScan steps a DB iterator, wrapping around, over entries
// written in key order as a fill writes them and flushed into runs equal
// runs: runs=1 is the readseq path after a fill's full compaction, one
// table stepped directly, and runs=4 a merge of four table iterators.
// Over 120 000 entries with 400-byte values their blocks, ~48 MB in all,
// are mostly cold in the core's own caches. Over 4 000 entries with
// 40-byte values they stay resident, so a step's cost is the merge itself
// and a change to it shows above the host's noise.
func BenchmarkScan(b *testing.B) {
	for _, c := range []struct {
		name                 string
		runs, entries, value int
	}{
		{"runs=1", 1, 120000, 400},
		{"runs=4", 4, 120000, 400},
		{"runs=4,entries=4000", 4, 4000, 40},
	} {
		b.Run(c.name, func(b *testing.B) {
			db := openDB(b, newFS(), Options{MemtableBytes: 1 << 30, CompactionRuns: 1 << 30})
			value := bytes.Repeat([]byte("v"), c.value)
			for i := 0; i < c.entries; i++ {
				if err := db.Put(k(i), value); err != nil {
					b.Fatal(err)
				}
				if (i+1)%(c.entries/c.runs) == 0 {
					if err := db.Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
			it := db.NewIterator()
			it.SeekToFirst()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !it.Valid() {
					it.SeekToFirst()
				}
				it.Next()
			}
			if err := it.Err(); err != nil {
				b.Fatal(err)
			}
		})
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
// compaction. It was re-pinned twice, when sstable data blocks became keys
// first and when each entry's kind byte moved from the head of its value
// into the key section: both times the file names, sizes and WAL bytes
// stayed, and the second time each table's index, bloom and footer bytes
// too; only the two tables' block bytes moved. Flush, compaction and the
// WAL must not move a byte.
func TestDBFilesGolden(t *testing.T) {
	const want = "f896c8241d5c003bc1d7a10e5d81e3bccce1c918dec51a56f41ebb16ec803dda"
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
// The merge caches every source's key while it advances the others; that
// is safe only because each source owns its storage and a cached key is
// refreshed whenever its own source moves.
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
	fwd := db.NewIterator()
	fwd.SeekToFirst()
	checkScan(t, "forward", fwd, keys, oracle)
	fwd.Seek([]byte(keys[len(keys)/2]))
	checkScan(t, "forward from seek", fwd, keys[len(keys)/2:], oracle)

	rev := db.NewReverseIterator()
	rev.SeekToLast()
	checkScan(t, "reverse", rev, reversed(keys), oracle)
	rev.Seek([]byte(keys[len(keys)-1-len(keys)/3]))
	checkScan(t, "reverse from seek", rev, reversed(keys)[len(keys)/3:], oracle)

	// Compaction consumes the same merge; its output must hold the same data.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	fwd = db.NewIterator()
	fwd.SeekToFirst()
	checkScan(t, "after compaction", fwd, keys, oracle)
}

// TestCompactionRejectsEmptyRecord: an entry's kind byte is 0 (a value)
// or 1 (a tombstone), and any other byte makes the table corrupt. (When a
// table value began with its kind, the corrupt case was an empty record;
// an empty value is legal now, see TestEmptyValueRoundTrip.) Get reports
// a bad kind, and both compactions, which copy entries as they find them,
// must report it too rather than write the entry on. The bad entry sits
// in a table's last block, which Open does not decode. A failed
// compaction leaves no output file behind: the store's tables are still
// the two inputs, and it reopens with the intact entries readable.
func TestCompactionRejectsEmptyRecord(t *testing.T) {
	for _, c := range []struct {
		name    string
		compact func(*DB) error
	}{{"pair", (*DB).compactPair}, {"full", (*DB).Compact}} {
		t.Run(c.name, func(t *testing.T) {
			fs := newFS()
			writeTable(t, fs, 1, 0, 1)
			writeBadLastKind(t, fs, 2, 100, 300)
			db := openDB(t, fs, Options{})
			if got, ok, err := db.Get(k(100)); err != nil || !ok || !bytes.Equal(got, v(100)) {
				t.Fatalf("Get of an entry in an intact block: %q, %v, %v", got, ok, err)
			}
			if _, _, err := db.Get(k(299)); !errors.Is(err, sstable.ErrBadTable) {
				t.Fatalf("Get of the entry with kind 2: %v, want ErrBadTable", err)
			}
			if err := c.compact(db); !errors.Is(err, sstable.ErrBadTable) {
				t.Fatalf("compaction over the entry with kind 2: %v, want ErrBadTable", err)
			}
			var tables []string
			for _, name := range fs.Names() {
				if _, ok := tableSeq(name); ok {
					tables = append(tables, name)
				}
			}
			sort.Strings(tables)
			if want := []string{tableName(1), tableName(2)}; fmt.Sprint(tables) != fmt.Sprint(want) {
				t.Fatalf("tables after the failed compaction: %q, want the inputs %q", tables, want)
			}
			reopened, err := Open(fs, Options{})
			if err != nil {
				t.Fatalf("reopen after the failed compaction: %v", err)
			}
			if got, ok, err := reopened.Get(k(100)); err != nil || !ok || !bytes.Equal(got, v(100)) {
				t.Fatalf("Get after the reopen: %q, %v, %v", got, ok, err)
			}
		})
	}
}

// writeTable writes table seq holding keys [lo, hi) with their values.
func writeTable(t *testing.T, fs *vfs.FS, seq, lo, hi int) {
	t.Helper()
	f, err := fs.Create(tableName(seq))
	if err != nil {
		t.Fatal(err)
	}
	b := sstable.NewBuilder(f, 0)
	for i := lo; i < hi; i++ {
		if err := b.Add(k(i), v(i), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
}

// writeBadLastKind writes table seq as writeTable does, then sets the kind
// byte of its last key, k(hi-1), to 2, which makes the table corrupt in
// its last block, one that Open does not decode.
func writeBadLastKind(t *testing.T, fs *vfs.FS, seq, lo, hi int) {
	t.Helper()
	writeTable(t, fs, seq, lo, hi)
	f, _ := fs.Open(tableName(seq))
	data := make([]byte, f.Size())
	if _, err := f.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	last := k(hi - 1)
	at := bytes.Index(data, last) + len(last) // the kind byte follows the key
	if at < 2*sstable.DefaultBlockSize || data[at] != 0 {
		t.Fatalf("kind byte of the last key at %d reads %d; want a value's kind past block 1", at, data[at])
	}
	if _, err := f.WriteAt([]byte{2}, int64(at)); err != nil {
		t.Fatal(err)
	}
}

// TestIteratorReportsBadTable scans a table whose last block is corrupt,
// alone (the merge steps it directly) and under a memtable entry (the
// merge picks between them), in both directions: the scan ends on the
// corrupt block, keeps its order up to there, and Err reports the table's
// error.
func TestIteratorReportsBadTable(t *testing.T) {
	for _, withMem := range []bool{false, true} {
		fs := newFS()
		writeBadLastKind(t, fs, 1, 100, 300)
		db := openDB(t, fs, Options{})
		if withMem {
			if err := db.Put(k(50), v(50)); err != nil {
				t.Fatal(err)
			}
		}
		for _, it := range []*Iterator{db.NewIterator(), db.NewReverseIterator()} {
			name := fmt.Sprintf("memtable %v, reverse %v", withMem, it.m.dir == reverse)
			if (it.m.one != nil) == withMem {
				t.Fatalf("%s: direct step %v", name, it.m.one != nil)
			}
			if it.m.dir == forward {
				it.SeekToFirst()
			} else {
				it.SeekToLast()
			}
			var prev []byte
			for ; it.Valid(); it.Next() {
				if c := bytes.Compare(it.m.key(), prev); prev != nil && (c > 0) != (it.m.dir == forward) {
					t.Fatalf("%s: %q after %q", name, it.m.key(), prev)
				}
				prev = append(prev[:0], it.m.key()...)
			}
			if err := it.Err(); !errors.Is(err, sstable.ErrBadTable) {
				t.Fatalf("%s: Err %v, want ErrBadTable", name, err)
			}
		}
	}
}

// TestEmptyValueRoundTrip: an empty value is a live value, not a
// tombstone, through a flush, a pair compaction and the Get and scan of
// each result.
func TestEmptyValueRoundTrip(t *testing.T) {
	db := openDB(t, newFS(), Options{MemtableBytes: 1 << 30, CompactionRuns: 1 << 30})
	check := func(stage string) {
		t.Helper()
		if got, ok, err := db.Get(k(1)); err != nil || !ok || len(got) != 0 {
			t.Fatalf("%s: Get of the empty value = %q, %v, %v", stage, got, ok, err)
		}
		if _, ok, err := db.Get(k(3)); err != nil || ok {
			t.Fatalf("%s: Get of the deleted key = %v, %v", stage, ok, err)
		}
		var seen []string
		it := db.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			seen = append(seen, string(it.m.key())+"="+string(it.m.value()))
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		want := []string{string(k(1)) + "=", string(k(2)) + "=" + string(v(2)), string(k(4)) + "=" + string(v(4))}
		if fmt.Sprint(seen) != fmt.Sprint(want) {
			t.Fatalf("%s: scan %q, want %q", stage, seen, want)
		}
	}
	for _, step := range []func() error{
		func() error { return db.Put(k(1), nil) },
		func() error { return db.Put(k(2), v(2)) },
		func() error { return db.Put(k(3), v(3)) },
		db.Flush,
		func() error { return db.Delete(k(3)) },
		func() error { return db.Put(k(4), v(4)) },
		db.Flush,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if db.Tables() != 2 {
		t.Fatalf("%d tables after two flushes", db.Tables())
	}
	check("after flush")
	if err := db.compactPair(); err != nil {
		t.Fatal(err)
	}
	if db.Tables() != 1 {
		t.Fatalf("%d tables after a pair compaction", db.Tables())
	}
	check("after pair compaction")
}

// TestCloneNeedsEmptyMemtable: Clone copies no memtable entry, so it
// refuses a DB with unflushed writes; after a flush the copy reads what
// the original holds, and neither sees the other's later writes.
func TestCloneNeedsEmptyMemtable(t *testing.T) {
	fs := newFS()
	db := openDB(t, fs, Options{Seed: 3})
	for i := 0; i < 100; i++ {
		if err := db.Put(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	copyFS := func() *vfs.FS {
		clk := clock.New()
		return fs.Clone(pagecache.New(pagecache.Config{CapacityPages: 64}, clk, blockdev.New(blockdev.NVMe(), clk), nil))
	}
	if _, err := db.Clone(copyFS()); err == nil {
		t.Fatal("Clone with 100 memtable entries succeeded")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	cp, err := db.Clone(copyFS())
	if err != nil {
		t.Fatal(err)
	}
	if cp.Stats() != db.Stats() || cp.Tables() != db.Tables() || cp.seq != db.seq || cp.mem.seed != db.mem.seed {
		t.Fatalf("copy %+v %d tables seq %d seed %d; original %+v %d tables seq %d seed %d",
			cp.Stats(), cp.Tables(), cp.seq, cp.mem.seed, db.Stats(), db.Tables(), db.seq, db.mem.seed)
	}
	if err := cp.Put(k(0), []byte("copy")); err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _, err := db.Get(k(0)); err != nil || !bytes.Equal(got, v(0)) {
		t.Fatalf("original reads %q, %v after the copy's write", got, err)
	}
	if got, _, err := cp.Get(k(0)); err != nil || string(got) != "copy" {
		t.Fatalf("copy reads %q, %v after its own write", got, err)
	}
	if _, err := fs.Open(tableName(cp.seq)); err == nil {
		t.Fatal("the copy's flush created a table in the original's filesystem")
	}
}
