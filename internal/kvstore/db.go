package kvstore

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/sstable"
	"repro/internal/vfs"
)

// Options configures a DB.
type Options struct {
	// MemtableBytes triggers a flush when the memtable grows past it;
	// 0 means 4 MB.
	MemtableBytes int
	// CompactionRuns triggers a full compaction when the number of sorted
	// runs reaches it; 0 means 4.
	CompactionRuns int
	// BlockSize is the SSTable data-block size; 0 uses the sstable default.
	BlockSize int
	// WALSync fsyncs the log on every write (db_bench leaves this off).
	WALSync bool
	// Seed makes memtable skiplist heights deterministic.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes == 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.CompactionRuns == 0 {
		o.CompactionRuns = 4
	}
	return o
}

// Table-value tags: SSTables store either a live value or a tombstone.
const (
	tagValue     byte = 0
	tagTombstone byte = 1
)

// DB is the LSM store.
type DB struct {
	fs   *vfs.FS
	opts Options

	mem    *memtable
	wal    *wal
	tables []*sstable.Table // newest first
	seq    int
	rec    []byte // the tagged record a table build is adding; see record

	stats DBStats
}

// DBStats counts store activity.
type DBStats struct {
	Puts        uint64
	Gets        uint64
	Deletes     uint64
	Flushes     uint64
	Compactions uint64
}

// Open creates or reopens a DB in fs. An existing WAL is replayed into the
// memtable; existing tables are reattached in recency order.
func Open(fs *vfs.FS, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	db := &DB{fs: fs, opts: opts, mem: newMemtable(opts.Seed)}
	// Reattach tables newest (highest sequence number) first.
	type run struct {
		seq  int
		name string
	}
	var runs []run
	for _, name := range fs.Names() {
		if seq, ok := tableSeq(name); ok {
			runs = append(runs, run{seq, name})
		}
	}
	slices.SortFunc(runs, func(a, b run) int { return cmp.Compare(b.seq, a.seq) })
	if len(runs) > 0 {
		db.seq = runs[0].seq
	}
	for _, r := range runs {
		f, err := fs.Open(r.name)
		if err != nil {
			return nil, err
		}
		t, err := sstable.Open(f)
		if err != nil {
			return nil, fmt.Errorf("kvstore: reopen %s: %w", r.name, err)
		}
		db.tables = append(db.tables, t)
	}
	// WAL: replay if present, else create.
	walFile, err := fs.Open("kml.wal")
	if errors.Is(err, vfs.ErrNotExist) {
		walFile, err = fs.Create("kml.wal")
	}
	if err != nil {
		return nil, err
	}
	records, err := replayWAL(walFile)
	if err != nil {
		return nil, err
	}
	for _, r := range records {
		db.mem.put(r.key, r.value, r.kind == walDelete)
	}
	db.wal = newWAL(walFile, opts.WALSync)
	return db, nil
}

// tableName names the file of the table with sequence number seq.
func tableName(seq int) string { return fmt.Sprintf("kml-%06d.sst", seq) }

// tableSeq parses a table file name: exactly kml-<digits>.sst, any number
// of digits, since tableName pads to six but does not stop there.
func tableSeq(name string) (int, bool) {
	digits, ok := strings.CutPrefix(name, "kml-")
	if !ok {
		return 0, false
	}
	digits, ok = strings.CutSuffix(digits, ".sst")
	if !ok || digits == "" {
		return 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	seq, err := strconv.Atoi(digits)
	return seq, err == nil
}

// Put stores value under key.
func (db *DB) Put(key, value []byte) error {
	if len(key) == 0 {
		return errors.New("kvstore: empty key")
	}
	db.stats.Puts++
	if err := db.wal.append(walPut, key, value); err != nil {
		return err
	}
	db.mem.put(key, value, false)
	return db.maybeFlush()
}

// Delete removes key (writes a tombstone).
//
//kml:api the only writer of the tombstone tag that the WAL and table formats carry
func (db *DB) Delete(key []byte) error {
	if len(key) == 0 {
		return errors.New("kvstore: empty key")
	}
	db.stats.Deletes++
	if err := db.wal.append(walDelete, key, nil); err != nil {
		return err
	}
	db.mem.put(key, nil, true)
	return db.maybeFlush()
}

// Get returns the newest value stored under key. The value aliases the
// memtable or a table file rather than being copied out: the caller must
// not modify it.
func (db *DB) Get(key []byte) (value []byte, ok bool, err error) {
	db.stats.Gets++
	if v, tomb, found := db.mem.get(key); found {
		if tomb {
			return nil, false, nil
		}
		return v, true, nil
	}
	for _, t := range db.tables {
		raw, found, err := t.Get(key)
		if err != nil {
			return nil, false, err
		}
		if !found {
			continue
		}
		if len(raw) == 0 {
			return nil, false, fmt.Errorf("kvstore: empty table record for %q", key)
		}
		if raw[0] == tagTombstone {
			return nil, false, nil
		}
		return raw[1:], true, nil
	}
	return nil, false, nil
}

func (db *DB) maybeFlush() error {
	if db.mem.sizeBytes() < db.opts.MemtableBytes {
		return nil
	}
	return db.Flush()
}

// Flush writes the memtable to a new SSTable and resets the WAL. A flush
// that pushes the run count to the compaction threshold triggers a full
// compaction.
func (db *DB) Flush() error {
	if db.mem.len() == 0 {
		return nil
	}
	db.stats.Flushes++
	db.seq++
	name := tableName(db.seq)
	f, err := db.fs.Create(name)
	if err != nil {
		return err
	}
	reserveTable(f, int64(db.mem.sizeBytes()))
	b := sstable.NewBuilder(f, db.opts.BlockSize)
	for _, e := range db.mem.entries() {
		if err := b.Add(e.key, db.record(e.value, e.tombstone)); err != nil {
			return err
		}
	}
	if err := b.Finish(); err != nil {
		return err
	}
	t, err := sstable.Open(f)
	if err != nil {
		return err
	}
	db.tables = append([]*sstable.Table{t}, db.tables...)
	// Reset the memtable and WAL (mutations are durable in the table now).
	db.mem = newMemtable(db.opts.Seed + int64(db.seq))
	if err := db.resetWAL(); err != nil {
		return err
	}
	if len(db.tables) >= db.opts.CompactionRuns {
		return db.compactPair()
	}
	return nil
}

// record encodes a table value, its tag byte then the value, into the one
// scratch buffer every table build shares: Builder.Add copies what it is
// given, so the buffer is free again as soon as Add returns.
func (db *DB) record(value []byte, tombstone bool) []byte {
	tag := tagValue
	if tombstone {
		tag = tagTombstone
	}
	db.rec = append(append(db.rec[:0], tag), value...)
	return db.rec
}

// reserveTable hints the size of the table about to be built in f from the
// bytes going into it (memtable size, or the input tables' file sizes), so
// the build does not double-and-copy its way up from nothing. The eighth of
// headroom covers what the inputs understate — entry framing, block
// padding, index and bloom on a flush; index offsets that encode longer in
// a larger file on a compaction — for the entry sizes the workloads write.
// A short hint only costs the doubling it was meant to avoid.
func reserveTable(f *vfs.File, inputBytes int64) {
	f.Reserve(inputBytes + inputBytes/8)
}

// compactPair merges the adjacent pair of runs with the smallest combined
// entry count — incremental, RocksDB-like compaction that keeps write
// amplification bounded instead of rewriting the whole store. Adjacency in
// the recency list preserves shadowing; tombstones are dropped only when
// the pair includes the oldest run (nothing older could be resurrected).
func (db *DB) compactPair() error {
	if len(db.tables) < 2 {
		return nil
	}
	best := 0
	bestSize := ^uint64(0)
	for i := 0; i+1 < len(db.tables); i++ {
		size := db.tables[i].Entries() + db.tables[i+1].Entries()
		if size < bestSize {
			best, bestSize = i, size
		}
	}
	pair := db.tables[best : best+2]
	includesOldest := best+2 == len(db.tables)
	db.stats.Compactions++
	it := newMergeIterator(nil, pair, forward)
	it.SeekToFirst()
	db.seq++
	name := tableName(db.seq)
	f, err := db.fs.Create(name)
	if err != nil {
		return err
	}
	reserveTable(f, pair[0].File().Size()+pair[1].File().Size())
	b := sstable.NewBuilder(f, db.opts.BlockSize)
	for it.valid() {
		if !(it.tombstone() && includesOldest) {
			if err := b.Add(it.key(), db.record(it.value(), it.tombstone())); err != nil {
				return err
			}
		}
		it.next()
	}
	if err := it.err(); err != nil {
		return err
	}
	var merged []*sstable.Table
	if b.Entries() > 0 {
		if err := b.Finish(); err != nil {
			return err
		}
		t, err := sstable.Open(f)
		if err != nil {
			return err
		}
		merged = []*sstable.Table{t}
	} else {
		if err := db.fs.Remove(name); err != nil {
			return err
		}
	}
	for _, t := range pair {
		if err := db.fs.Remove(t.File().Name()); err != nil {
			return err
		}
	}
	rest := make([]*sstable.Table, 0, len(db.tables)-2+len(merged))
	rest = append(rest, db.tables[:best]...)
	rest = append(rest, merged...)
	rest = append(rest, db.tables[best+2:]...)
	db.tables = rest
	return nil
}

func (db *DB) resetWAL() error {
	walFile, err := db.fs.Open("kml.wal")
	if err != nil {
		return err
	}
	if err := walFile.Truncate(0); err != nil {
		return err
	}
	db.wal = newWAL(walFile, db.opts.WALSync)
	return nil
}

// Compact merges every table into one, dropping shadowed values and
// tombstones (full compaction: nothing older survives to resurrect them).
func (db *DB) Compact() error {
	if len(db.tables) <= 1 {
		return nil
	}
	db.stats.Compactions++
	it := newMergeIterator(nil, db.tables, forward)
	it.SeekToFirst()
	db.seq++
	name := tableName(db.seq)
	f, err := db.fs.Create(name)
	if err != nil {
		return err
	}
	var inputBytes int64
	for _, t := range db.tables {
		inputBytes += t.File().Size()
	}
	reserveTable(f, inputBytes)
	b := sstable.NewBuilder(f, db.opts.BlockSize)
	for it.valid() {
		if !it.tombstone() {
			if err := b.Add(it.key(), db.record(it.value(), false)); err != nil {
				return err
			}
		}
		it.next()
	}
	if err := it.err(); err != nil {
		return err
	}
	if b.Entries() == 0 {
		// Everything was deleted; remove the empty output and all inputs.
		db.fs.Remove(name)
		return db.dropTables(nil)
	}
	if err := b.Finish(); err != nil {
		return err
	}
	t, err := sstable.Open(f)
	if err != nil {
		return err
	}
	return db.dropTables([]*sstable.Table{t})
}

func (db *DB) dropTables(replacement []*sstable.Table) error {
	for _, t := range db.tables {
		if err := db.fs.Remove(t.File().Name()); err != nil {
			return err
		}
	}
	db.tables = replacement
	return nil
}

// Tables returns the current number of sorted runs.
func (db *DB) Tables() int { return len(db.tables) }

// Stats returns a copy of the store's counters.
func (db *DB) Stats() DBStats { return db.stats }
