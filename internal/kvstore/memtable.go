// Package kvstore implements the LSM-tree key-value store standing in for
// RocksDB in the paper's evaluation (§4 tests RocksDB under db_bench
// workloads). It has the structures that shape RocksDB's I/O: a skiplist
// memtable, a write-ahead log, immutable sorted tables (internal/sstable)
// read through the simulated page cache, an inline flush when the
// memtable fills, and a pair compaction when a flush brings the run count
// to Options.CompactionRuns (the full compaction, DB.Compact, runs only
// when called: workload.Fill calls it once). Point lookups probe
// newest-to-oldest with bloom filters; iterators merge all runs and
// support forward and reverse scans — producing the readseq / readrandom /
// readreverse / mixed page-cache access patterns the KML readahead
// classifier learns to recognize.
package kvstore

import (
	"bytes"
	"math/rand"
)

const maxHeight = 12

type mnode struct {
	key       []byte
	value     []byte
	tombstone bool
	next      [maxHeight]*mnode
}

// memtable is a skiplist keyed by byte slices, storing the newest write per
// key (a tombstone for deletes).
type memtable struct {
	head *mnode
	rng  *rand.Rand
	// seed is rng's seed. A *rand.Rand cannot be copied, but an empty
	// memtable has drawn nothing from it, so newMemtable(seed) is an
	// exact copy of an empty memtable (see DB.Clone). Skiplist heights
	// never reach the simulation, so no simulated count would show a
	// wrong seed; it is kept right by construction instead.
	seed   int64
	height int
	bytes  int
	count  int
}

func newMemtable(seed int64) *memtable {
	return &memtable{
		head:   &mnode{},
		rng:    rand.New(rand.NewSource(seed)),
		seed:   seed,
		height: 1,
	}
}

func (m *memtable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with key ≥ key and fills prev
// with the rightmost node before it on every level.
func (m *memtable) findGreaterOrEqual(key []byte, prev *[maxHeight]*mnode) *mnode {
	x := m.head
	for level := m.height - 1; level >= 0; level-- {
		for x.next[level] != nil && bytes.Compare(x.next[level].key, key) < 0 {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// put inserts or updates key. tombstone true records a delete.
func (m *memtable) put(key, value []byte, tombstone bool) {
	var prev [maxHeight]*mnode
	x := m.findGreaterOrEqual(key, &prev)
	if x != nil && bytes.Equal(x.key, key) {
		m.bytes += len(value) - len(x.value)
		x.value = append([]byte(nil), value...)
		x.tombstone = tombstone
		return
	}
	h := m.randomHeight()
	for level := m.height; level < h; level++ {
		prev[level] = m.head
	}
	if h > m.height {
		m.height = h
	}
	nd := &mnode{
		key:       append([]byte(nil), key...),
		value:     append([]byte(nil), value...),
		tombstone: tombstone,
	}
	for level := 0; level < h; level++ {
		nd.next[level] = prev[level].next[level]
		prev[level].next[level] = nd
	}
	m.bytes += len(key) + len(value) + 32 // rough node overhead
	m.count++
}

// get returns the stored value; tombstone true means the key is deleted.
func (m *memtable) get(key []byte) (value []byte, tombstone, ok bool) {
	x := m.findGreaterOrEqual(key, nil)
	if x != nil && bytes.Equal(x.key, key) {
		return x.value, x.tombstone, true
	}
	return nil, false, false
}

// entries returns a snapshot of all entries in key order.
func (m *memtable) entries() []mentry {
	out := make([]mentry, 0, m.count)
	for x := m.head.next[0]; x != nil; x = x.next[0] {
		out = append(out, mentry{key: x.key, value: x.value, tombstone: x.tombstone})
	}
	return out
}

type mentry struct {
	key, value []byte
	tombstone  bool
}

// sizeBytes returns the approximate resident size of the memtable.
func (m *memtable) sizeBytes() int { return m.bytes }

// len returns the number of distinct keys.
func (m *memtable) len() int { return m.count }
