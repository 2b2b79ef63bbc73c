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
	// CompactionRuns triggers a pair compaction (the adjacent pair of runs
	// with the fewest entries merges) when a flush brings the number of
	// sorted runs to it; 0 means 4.
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

// DB is the LSM store.
type DB struct {
	fs   *vfs.FS
	opts Options

	mem    *memtable
	wal    *wal
	tables []*sstable.Table // newest first
	seq    int

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

// Clone returns a copy of db over fs, a copy of db's filesystem (see
// vfs.FS.Clone): the same options, sequence number and statistics, the
// log reattached, every table cloned onto fs's file of the same name, and
// an empty memtable with the same seed. It reads nothing through the page
// cache — Open would, and so would move the copy's simulated state — and
// it copies no memtable entry, so the memtable must be empty (as a Flush
// leaves it).
func (db *DB) Clone(fs *vfs.FS) (*DB, error) {
	if db.mem.len() != 0 {
		return nil, fmt.Errorf("kvstore: Clone with %d memtable entries", db.mem.len())
	}
	out := &DB{fs: fs, opts: db.opts, mem: newMemtable(db.mem.seed), seq: db.seq, stats: db.stats}
	walFile, err := fs.Open(db.wal.f.Name())
	if err != nil {
		return nil, err
	}
	out.wal = newWAL(walFile, db.opts.WALSync)
	out.tables = make([]*sstable.Table, len(db.tables))
	for i, t := range db.tables {
		f, err := fs.Open(t.File().Name())
		if err != nil {
			return nil, err
		}
		out.tables[i] = t.Clone(f)
	}
	return out, nil
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
func (db *DB) Put(key, value []byte) error { return db.write(walPut, key, value) }

// Delete removes key (writes a tombstone).
//
//kml:api the only writer of the tombstones that the WAL and table formats carry
func (db *DB) Delete(key []byte) error { return db.write(walDelete, key, nil) }

// write logs one mutation of the given WAL kind, applies it to the
// memtable, and flushes a memtable that has grown to MemtableBytes.
func (db *DB) write(kind byte, key, value []byte) error {
	if len(key) == 0 {
		return errors.New("kvstore: empty key")
	}
	tombstone := kind == walDelete
	if tombstone {
		db.stats.Deletes++
	} else {
		db.stats.Puts++
	}
	if err := db.wal.append(kind, key, value); err != nil {
		return err
	}
	db.mem.put(key, value, tombstone)
	if db.mem.sizeBytes() < db.opts.MemtableBytes {
		return nil
	}
	return db.Flush()
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
		v, tomb, found, err := t.Get(key)
		switch {
		case err != nil:
			return nil, false, err
		case found && tomb:
			return nil, false, nil
		case found:
			return v, true, nil
		}
	}
	return nil, false, nil
}

// Flush writes the memtable to a new newest run and resets the WAL. A
// flush that brings the run count to CompactionRuns triggers a pair
// compaction.
func (db *DB) Flush() error {
	if db.mem.len() == 0 {
		return nil
	}
	db.stats.Flushes++
	t, err := db.writeRun(int64(db.mem.sizeBytes()), func(b *sstable.Builder) error {
		for _, e := range db.mem.entries() {
			if err := b.Add(e.key, e.value, e.tombstone); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := db.replaceRuns(0, 0, t); err != nil {
		return err
	}
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

// writeRun builds a new run's table in a file named with the next
// sequence number: add fills the builder, and the finished table is
// opened. The file reserves inputBytes (the memtable's size, or the input
// tables' file sizes) plus an eighth, which covers what the inputs
// understate — entry framing, block padding, index and bloom on a flush;
// index offsets that encode longer on a compaction — so the build does not
// double-and-copy its way up; a short hint only costs that doubling. A
// failed or empty build leaves no file: writeRun removes it and returns
// the build's error, or for an empty build a nil table.
func (db *DB) writeRun(inputBytes int64, add func(*sstable.Builder) error) (*sstable.Table, error) {
	db.seq++
	name := tableName(db.seq)
	f, err := db.fs.Create(name)
	if err != nil {
		return nil, err
	}
	f.Reserve(inputBytes + inputBytes/8)
	b := sstable.NewBuilder(f, db.opts.BlockSize)
	err = add(b)
	if err == nil && b.Entries() == 0 {
		return nil, db.fs.Remove(name)
	}
	var t *sstable.Table
	if err == nil {
		err = b.Finish()
	}
	if err == nil {
		t, err = sstable.Open(f)
	}
	if err != nil {
		return nil, errors.Join(err, db.fs.Remove(name))
	}
	return t, nil
}

// replaceRuns is the one edit of the run list: runs [lo, hi) leave it and
// t, if not nil, takes their place. A flush is replaceRuns(0, 0, t). The
// list changes first, then the files of the runs that left are removed,
// so a failed Remove leaves a stray file, never a listed run without one.
func (db *DB) replaceRuns(lo, hi int, t *sstable.Table) error {
	gone := db.tables[lo:hi]
	runs := make([]*sstable.Table, 0, len(db.tables)-len(gone)+1)
	runs = append(runs, db.tables[:lo]...)
	if t != nil {
		runs = append(runs, t)
	}
	db.tables = append(runs, db.tables[hi:]...)
	for _, g := range gone {
		if err := db.fs.Remove(g.File().Name()); err != nil {
			return err
		}
	}
	return nil
}

// compactPair merges the adjacent pair of runs with the smallest combined
// entry count — incremental, RocksDB-like compaction that keeps write
// amplification bounded instead of rewriting the whole store.
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
	return db.compact(best, best+2)
}

// Compact merges every run into one, dropping shadowed values and
// tombstones (full compaction: nothing older survives to resurrect them).
func (db *DB) Compact() error {
	if len(db.tables) <= 1 {
		return nil
	}
	return db.compact(0, len(db.tables))
}

// compact merges the adjacent runs [lo, hi) into one. Adjacency in the
// recency list preserves shadowing. Each entry is copied as its input
// table stores it, never re-encoded; tombstones are dropped only when hi
// is the oldest run, since nothing older could be resurrected. The inputs
// are seeked before the output is created, the order the page cache sees.
func (db *DB) compact(lo, hi int) error {
	db.stats.Compactions++
	in := db.tables[lo:hi]
	it := newMergeIterator(nil, in, forward)
	it.SeekToFirst()
	var inputBytes int64
	for _, t := range in {
		inputBytes += t.File().Size()
	}
	dropTombstones := hi == len(db.tables)
	t, err := db.writeRun(inputBytes, func(b *sstable.Builder) error {
		for ; it.valid(); it.next() {
			tomb := it.tombstone()
			if dropTombstones && tomb {
				continue
			}
			if err := b.Add(it.key(), it.value(), tomb); err != nil {
				return err
			}
		}
		return it.err()
	})
	if err != nil {
		return err
	}
	return db.replaceRuns(lo, hi, t)
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

// Tables returns the current number of sorted runs.
func (db *DB) Tables() int { return len(db.tables) }

// Stats returns a copy of the store's counters.
func (db *DB) Stats() DBStats { return db.stats }
