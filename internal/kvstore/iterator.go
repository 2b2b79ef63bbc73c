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
type source interface {
	seekToFirst()
	seekToLast()
	seek(key []byte)
	valid() bool
	next()
	prev()
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
func (s *memSource) valid() bool     { return s.pos >= 0 && s.pos < len(s.entries) }
func (s *memSource) next()           { s.pos++ }
func (s *memSource) prev()           { s.pos-- }
func (s *memSource) key() []byte     { return s.entries[s.pos].key }
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
func (s *tableSource) valid() bool     { return s.it.Valid() }
func (s *tableSource) next()           { s.it.Next() }
func (s *tableSource) prev()           { s.it.Prev() }
func (s *tableSource) key() []byte     { return s.it.Key() }
func (s *tableSource) value() []byte   { return s.it.Value() }
func (s *tableSource) tombstone() bool { return s.it.Tombstone() }
func (s *tableSource) err() error      { return s.it.Err() }

// mergeIterator merges sources by key; on duplicate keys the lowest source
// index (newest run) wins and older entries are skipped.
type mergeIterator struct {
	sources []source
	dir     direction
	cur     int // index of the current source, -1 if exhausted
}

// newMergeIterator builds a merge over a memtable snapshot (may be nil)
// and tables newest-first.
func newMergeIterator(mem []mentry, tables []*sstable.Table, dir direction) *mergeIterator {
	var sources []source
	if mem != nil {
		sources = append(sources, &memSource{entries: mem})
	}
	for _, t := range tables {
		sources = append(sources, &tableSource{it: t.NewIterator()})
	}
	return &mergeIterator{sources: sources, dir: dir, cur: -1}
}

func (m *mergeIterator) SeekToFirst() {
	for _, s := range m.sources {
		s.seekToFirst()
	}
	m.pick()
}

func (m *mergeIterator) SeekToLast() {
	for _, s := range m.sources {
		s.seekToLast()
	}
	m.pick()
}

func (m *mergeIterator) Seek(key []byte) {
	if m.dir == reverse {
		// For reverse scans, position each source at the last key ≤ key.
		for _, s := range m.sources {
			s.seek(key)
			switch {
			case s.valid() && bytes.Compare(s.key(), key) > 0:
				s.prev()
			case !s.valid():
				s.seekToLast()
				for s.valid() && bytes.Compare(s.key(), key) > 0 {
					s.prev()
				}
			}
		}
	} else {
		for _, s := range m.sources {
			s.seek(key)
		}
	}
	m.pick()
}

// pick selects the next current source: the minimum (or maximum, reverse)
// key among valid sources, breaking ties toward the newest run and
// advancing the stale duplicates past the chosen key. best stays valid
// while other sources advance because a table source's key aliases storage
// only that source's own moves overwrite.
func (m *mergeIterator) pick() {
	m.cur = -1
	var best []byte
	for i, s := range m.sources {
		if !s.valid() {
			continue
		}
		if m.cur == -1 {
			m.cur, best = i, s.key()
			continue
		}
		c := bytes.Compare(s.key(), best)
		if (m.dir == forward && c < 0) || (m.dir == reverse && c > 0) {
			m.cur, best = i, s.key()
		}
	}
	if m.cur == -1 {
		return
	}
	// Skip shadowed duplicates in older runs.
	for i, s := range m.sources {
		if i == m.cur || !s.valid() {
			continue
		}
		for s.valid() && bytes.Equal(s.key(), best) {
			if m.dir == forward {
				s.next()
			} else {
				s.prev()
			}
		}
	}
}

func (m *mergeIterator) valid() bool { return m.cur >= 0 }

func (m *mergeIterator) next() {
	if !m.valid() {
		return
	}
	m.sources[m.cur].next()
	m.pick()
}

func (m *mergeIterator) prev() {
	if !m.valid() {
		return
	}
	m.sources[m.cur].prev()
	m.pick()
}

func (m *mergeIterator) key() []byte     { return m.sources[m.cur].key() }
func (m *mergeIterator) value() []byte   { return m.sources[m.cur].value() }
func (m *mergeIterator) tombstone() bool { return m.sources[m.cur].tombstone() }

func (m *mergeIterator) err() error {
	for _, s := range m.sources {
		if e := s.err(); e != nil {
			return e
		}
	}
	return nil
}

// Iterator is the public DB iterator: a tombstone-filtering view over the
// merged runs. Direction is fixed at creation.
type Iterator struct {
	m   *mergeIterator
	dir direction
}

// NewIterator returns a forward iterator over the whole DB.
func (db *DB) NewIterator() *Iterator {
	return &Iterator{m: newMergeIterator(db.mem.entries(), db.tables, forward), dir: forward}
}

// NewReverseIterator returns a reverse iterator over the whole DB.
func (db *DB) NewReverseIterator() *Iterator {
	return &Iterator{m: newMergeIterator(db.mem.entries(), db.tables, reverse), dir: reverse}
}

func (it *Iterator) skipTombstones() {
	for it.m.valid() && it.m.tombstone() {
		if it.dir == forward {
			it.m.next()
		} else {
			it.m.prev()
		}
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
	if it.dir == forward {
		it.m.next()
	} else {
		it.m.prev()
	}
	it.skipTombstones()
}

// Err returns the first error any source hit.
func (it *Iterator) Err() error { return it.m.err() }
