package kvstore

import (
	"bytes"

	"repro/internal/sstable"
)

// direction fixes a merge iterator's scan order at creation; switching
// mid-scan is not supported (the workloads never do).
type direction int

const (
	forward direction = iota
	reverse
)

// source adapts one sorted run (memtable snapshot or table) for merging.
// key returns the current key, or nil once the source is exhausted (a DB
// key is never empty), and a move returns the key it lands on, as key
// would.
type source interface {
	seekToFirst()
	seekToLast()
	seek(key []byte)
	next() []byte
	prev() []byte
	key() []byte
	value() []byte
	tombstone() bool
	err() error
}

// memSource iterates a memtable snapshot.
type memSource struct {
	entries []mentry
	pos     int
}

func (s *memSource) seekToFirst() { s.pos = 0 }
func (s *memSource) seekToLast()  { s.pos = len(s.entries) - 1 }
func (s *memSource) seek(key []byte) {
	lo, hi := 0, len(s.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(s.entries[mid].key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.pos = lo
}
func (s *memSource) key() []byte {
	if s.pos < 0 || s.pos >= len(s.entries) {
		return nil
	}
	return s.entries[s.pos].key
}
func (s *memSource) next() []byte    { s.pos++; return s.key() }
func (s *memSource) prev() []byte    { s.pos--; return s.key() }
func (s *memSource) value() []byte   { return s.entries[s.pos].value }
func (s *memSource) tombstone() bool { return s.entries[s.pos].tombstone }
func (s *memSource) err() error      { return nil }

// tableSource iterates one SSTable.
type tableSource struct {
	it *sstable.Iterator
}

func (s *tableSource) seekToFirst()    { s.it.SeekToFirst() }
func (s *tableSource) seekToLast()     { s.it.SeekToLast() }
func (s *tableSource) seek(key []byte) { s.it.Seek(key) }
func (s *tableSource) key() []byte {
	if !s.it.Valid() {
		return nil
	}
	return s.it.Key()
}
func (s *tableSource) next() []byte    { s.it.Next(); return s.key() }
func (s *tableSource) prev() []byte    { s.it.Prev(); return s.key() }
func (s *tableSource) value() []byte   { return s.it.Value() }
func (s *tableSource) tombstone() bool { return s.it.Tombstone() }
func (s *tableSource) err() error      { return s.it.Err() }

// mergeIterator merges sources by key; on duplicate keys the lowest source
// index (newest run) wins and older entries are skipped. It caches each
// source's current key in keys, nil once the source is exhausted (a DB key
// is never empty), and refreshes an entry only right after its source
// moves, so a step re-reads only the sources it moved. A cached key stays
// valid until its own source moves, under the iterator contract (DESIGN.md
// §16), which is exactly when it is refreshed.
type mergeIterator struct {
	sources []source
	keys    [][]byte
	dir     direction
	cur     int   // index of the current source, -1 if exhausted
	failed  error // the first error a source hit, recorded as it went invalid
	// one is the only source when the merge is exactly one table: a step
	// then calls it directly, with no pick and no interface call.
	one *sstable.Iterator
}

// newMergeIterator builds a merge over a memtable snapshot (empty adds no
// source) and tables newest-first.
func newMergeIterator(mem []mentry, tables []*sstable.Table, dir direction) *mergeIterator {
	m := &mergeIterator{sources: make([]source, 0, len(tables)+1), dir: dir, cur: -1}
	if len(mem) > 0 {
		m.sources = append(m.sources, &memSource{entries: mem})
	}
	for _, t := range tables {
		m.sources = append(m.sources, &tableSource{it: t.NewIterator()})
	}
	if len(mem) == 0 && len(tables) == 1 {
		m.one = m.sources[0].(*tableSource).it
	}
	m.keys = make([][]byte, len(m.sources))
	return m
}

func (m *mergeIterator) SeekToFirst() {
	for i, s := range m.sources {
		s.seekToFirst()
		m.load(i, s.key())
	}
	m.pick()
}

func (m *mergeIterator) SeekToLast() {
	for i, s := range m.sources {
		s.seekToLast()
		m.load(i, s.key())
	}
	m.pick()
}

func (m *mergeIterator) Seek(key []byte) {
	for i, s := range m.sources {
		s.seek(key)
		k := s.key()
		if m.dir == reverse {
			// Position each source at the last key ≤ key instead.
			if k == nil {
				s.seekToLast()
				k = s.key()
			}
			for k != nil && bytes.Compare(k, key) > 0 {
				k = s.prev()
			}
		}
		m.load(i, k)
	}
	m.pick()
}

// load caches k, the key source i just moved to, and the source's error
// when k is nil: the first error recorded is the one Err reports.
func (m *mergeIterator) load(i int, k []byte) {
	m.keys[i] = k
	if k == nil && m.failed == nil {
		m.failed = m.sources[i].err()
	}
}

// step moves source i one entry in the scan direction.
func (m *mergeIterator) step(i int) {
	if m.dir == forward {
		m.load(i, m.sources[i].next())
	} else {
		m.load(i, m.sources[i].prev())
	}
}

// pick selects the next current source from the cached keys, with no call
// into any source: the minimum (or maximum, reverse) key, ties going to
// the newest run. A newer run holding the winning key would have won the
// tie, so only older runs can hold a shadowed duplicate, and only when a
// tie with the winner was seen; those are stepped past it. best stays
// valid while they move because it is the winner's key, and the winner
// does not move.
func (m *mergeIterator) pick() {
	m.cur = -1
	var best []byte
	dup := false
	for i, k := range m.keys {
		if k == nil {
			continue
		}
		if m.cur < 0 {
			m.cur, best = i, k
			continue
		}
		switch c := bytes.Compare(k, best); {
		case c == 0:
			dup = true
		case (c < 0) == (m.dir == forward):
			m.cur, best, dup = i, k, false
		}
	}
	if !dup {
		return
	}
	for i := m.cur + 1; i < len(m.keys); i++ {
		for m.keys[i] != nil && bytes.Equal(m.keys[i], best) {
			m.step(i)
		}
	}
}

func (m *mergeIterator) valid() bool { return m.cur >= 0 }

// next moves one entry in the merge's direction.
func (m *mergeIterator) next() {
	if m.cur < 0 {
		return
	}
	if it := m.one; it != nil {
		if m.dir == forward {
			it.Next()
		} else {
			it.Prev()
		}
		if it.Valid() {
			m.keys[0] = it.Key()
		} else {
			m.cur = -1
			m.load(0, nil)
		}
		return
	}
	m.step(m.cur)
	m.pick()
}

func (m *mergeIterator) key() []byte   { return m.keys[m.cur] }
func (m *mergeIterator) value() []byte { return m.sources[m.cur].value() }
func (m *mergeIterator) err() error    { return m.failed }

func (m *mergeIterator) tombstone() bool {
	if m.one != nil {
		return m.one.Tombstone()
	}
	return m.sources[m.cur].tombstone()
}

// Iterator is the public DB iterator: a tombstone-filtering view over the
// merged runs. Direction is fixed at creation.
type Iterator struct {
	m *mergeIterator
}

// NewIterator returns a forward iterator over the whole DB.
func (db *DB) NewIterator() *Iterator {
	return &Iterator{m: newMergeIterator(db.mem.entries(), db.tables, forward)}
}

// NewReverseIterator returns a reverse iterator over the whole DB.
func (db *DB) NewReverseIterator() *Iterator {
	return &Iterator{m: newMergeIterator(db.mem.entries(), db.tables, reverse)}
}

func (it *Iterator) skipTombstones() {
	for it.m.valid() && it.m.tombstone() {
		it.m.next()
	}
}

// SeekToFirst positions at the smallest live key (forward iterators).
func (it *Iterator) SeekToFirst() {
	it.m.SeekToFirst()
	it.skipTombstones()
}

// SeekToLast positions at the largest live key (reverse iterators).
func (it *Iterator) SeekToLast() {
	it.m.SeekToLast()
	it.skipTombstones()
}

// Seek positions at the first live key ≥ key (forward) or ≤ key (reverse).
func (it *Iterator) Seek(key []byte) {
	it.m.Seek(key)
	it.skipTombstones()
}

// Valid reports whether the iterator is on a live entry.
func (it *Iterator) Valid() bool { return it.m.valid() }

// Next moves one live entry in the iterator's direction.
func (it *Iterator) Next() {
	if !it.Valid() {
		return
	}
	it.m.next()
	it.skipTombstones()
}

// Err returns the first error any source hit.
func (it *Iterator) Err() error { return it.m.err() }
