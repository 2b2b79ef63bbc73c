package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/vfs"
)

// File layout:
//
//	data block 0 | data block 1 | ... | index | bloom | footer
//
// Data block: repeated entries (uvarint keyLen, key, uvarint valLen, val),
// keys strictly ascending across the whole table.
// Index: repeated (uvarint lastKeyLen, lastKey, uvarint off, uvarint len),
// one per block; lastKey is the block's largest key.
// Footer (fixed 48 bytes): indexOff, indexLen, bloomOff, bloomLen,
// numEntries (uint64 each) and the magic.
const (
	footerSize = 48
	tableMagic = 0x4b4d4c5353540a01 // "KMLSST\n\x01"

	// DefaultBlockSize is the target data-block size: 4 KB, RocksDB's
	// default block_size.
	DefaultBlockSize = 4096

	// blockAlign page-aligns data blocks (RocksDB's block_align option),
	// so a point lookup touches the minimum number of cache pages — the
	// granularity the readahead study assumes.
	blockAlign = 4096
)

// ErrBadTable reports a corrupt or truncated table file.
var ErrBadTable = errors.New("sstable: bad table")

// Builder writes a table. Add keys in strictly ascending order, then call
// Finish.
type Builder struct {
	f         *vfs.File
	blockSize int
	buf       []byte
	block     []byte
	firstKey  []byte
	lastKey   []byte
	index     []indexEntry
	hashes    []uint64 // fnv64a of every key, for the bloom filter
	offset    int64
	entries   uint64
	finished  bool
}

type indexEntry struct {
	lastKey []byte
	off     int64
	length  int64
}

// NewBuilder starts a table in f (which must be empty). blockSize 0 uses
// the default.
func NewBuilder(f *vfs.File, blockSize int) *Builder {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &Builder{f: f, blockSize: blockSize}
}

// Add appends a key/value pair; keys must arrive in strictly ascending
// order.
func (b *Builder) Add(key, value []byte) error {
	if b.finished {
		return errors.New("sstable: Add after Finish")
	}
	if len(key) == 0 {
		return errors.New("sstable: empty key")
	}
	if b.lastKey != nil && bytes.Compare(key, b.lastKey) <= 0 {
		return fmt.Errorf("sstable: key %q not above %q", key, b.lastKey)
	}
	var tmp [binary.MaxVarintLen64]byte
	// Flush first if this entry would overflow the block, keeping blocks
	// within one aligned unit (an oversized single entry still gets its
	// own block).
	entrySize := 2*binary.MaxVarintLen64 + len(key) + len(value)
	if len(b.block) > 0 && len(b.block)+entrySize > b.blockSize {
		if err := b.flushBlock(); err != nil {
			return err
		}
	}
	n := binary.PutUvarint(tmp[:], uint64(len(key)))
	b.block = append(b.block, tmp[:n]...)
	b.block = append(b.block, key...)
	n = binary.PutUvarint(tmp[:], uint64(len(value)))
	b.block = append(b.block, tmp[:n]...)
	b.block = append(b.block, value...)
	b.lastKey = append(b.lastKey[:0], key...)
	if b.firstKey == nil {
		b.firstKey = append([]byte(nil), key...)
	}
	b.hashes = append(b.hashes, fnv64a(key))
	b.entries++
	return nil
}

func (b *Builder) flushBlock() error {
	if len(b.block) == 0 {
		return nil
	}
	if _, err := b.f.WriteAt(b.block, b.offset); err != nil {
		return err
	}
	b.index = append(b.index, indexEntry{
		lastKey: append([]byte(nil), b.lastKey...),
		off:     b.offset,
		length:  int64(len(b.block)),
	})
	// Page-align the next block; the gap reads back as zeros, which the
	// decoder treats as end-of-block padding.
	b.offset = (b.offset + int64(len(b.block)) + blockAlign - 1) &^ (blockAlign - 1)
	b.block = b.block[:0]
	return nil
}

// Finish writes the index, bloom filter, and footer, and syncs the file.
func (b *Builder) Finish() error {
	if b.finished {
		return errors.New("sstable: double Finish")
	}
	b.finished = true
	if err := b.flushBlock(); err != nil {
		return err
	}
	if b.entries == 0 {
		return errors.New("sstable: empty table")
	}
	// Index.
	var idx []byte
	var tmp [binary.MaxVarintLen64]byte
	for _, e := range b.index {
		n := binary.PutUvarint(tmp[:], uint64(len(e.lastKey)))
		idx = append(idx, tmp[:n]...)
		idx = append(idx, e.lastKey...)
		n = binary.PutUvarint(tmp[:], uint64(e.off))
		idx = append(idx, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(e.length))
		idx = append(idx, tmp[:n]...)
	}
	indexOff := b.offset
	if _, err := b.f.WriteAt(idx, indexOff); err != nil {
		return err
	}
	b.offset += int64(len(idx))
	// Bloom.
	bloom := NewBloom(len(b.hashes), 10)
	for _, h := range b.hashes {
		bloom.addHash(h)
	}
	bl := bloom.Marshal()
	bloomOff := b.offset
	if _, err := b.f.WriteAt(bl, bloomOff); err != nil {
		return err
	}
	b.offset += int64(len(bl))
	// Footer.
	footer := make([]byte, footerSize)
	binary.LittleEndian.PutUint64(footer[0:], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:], uint64(len(idx)))
	binary.LittleEndian.PutUint64(footer[16:], uint64(bloomOff))
	binary.LittleEndian.PutUint64(footer[24:], uint64(len(bl)))
	binary.LittleEndian.PutUint64(footer[32:], b.entries)
	binary.LittleEndian.PutUint64(footer[40:], tableMagic)
	if _, err := b.f.WriteAt(footer, b.offset); err != nil {
		return err
	}
	b.f.Sync()
	return nil
}

// Entries returns the number of keys added so far.
func (b *Builder) Entries() uint64 { return b.entries }

// Table is an open, immutable sorted table.
type Table struct {
	f       *vfs.File
	index   []indexEntry
	bloom   *Bloom
	entries uint64
	first   []byte
	last    []byte
}

// Open reads a table's index, bloom filter and footer from f. The index
// and bloom stay resident (as in RocksDB with cache_index_and_filter_blocks
// off); data blocks are read through the page cache on demand. The index
// keys and the first key alias the file, which is safe because a table
// file is write-once.
func Open(f *vfs.File) (*Table, error) {
	size := f.Size()
	if size < footerSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadTable, size)
	}
	footer, err := f.View(size-footerSize, footerSize)
	if err != nil {
		return nil, fmt.Errorf("%w: footer: %v", ErrBadTable, err)
	}
	if binary.LittleEndian.Uint64(footer[40:]) != tableMagic {
		return nil, fmt.Errorf("%w: magic", ErrBadTable)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:]))
	indexLen := int64(binary.LittleEndian.Uint64(footer[8:]))
	bloomOff := int64(binary.LittleEndian.Uint64(footer[16:]))
	bloomLen := int64(binary.LittleEndian.Uint64(footer[24:]))
	entries := binary.LittleEndian.Uint64(footer[32:])
	if indexOff < 0 || indexLen <= 0 || bloomOff < indexOff+indexLen || indexOff+indexLen > size {
		return nil, fmt.Errorf("%w: footer offsets", ErrBadTable)
	}
	idx, err := f.View(indexOff, int(indexLen))
	if err != nil {
		return nil, fmt.Errorf("%w: index: %v", ErrBadTable, err)
	}
	t := &Table{f: f, entries: entries}
	for len(idx) > 0 {
		klen, n := binary.Uvarint(idx)
		if n <= 0 || int(klen) > len(idx)-n {
			return nil, fmt.Errorf("%w: index entry", ErrBadTable)
		}
		idx = idx[n:]
		key := idx[:klen:klen]
		idx = idx[klen:]
		off, n := binary.Uvarint(idx)
		if n <= 0 {
			return nil, fmt.Errorf("%w: index offset", ErrBadTable)
		}
		idx = idx[n:]
		length, n := binary.Uvarint(idx)
		if n <= 0 {
			return nil, fmt.Errorf("%w: index length", ErrBadTable)
		}
		idx = idx[n:]
		t.index = append(t.index, indexEntry{lastKey: key, off: int64(off), length: int64(length)})
	}
	if len(t.index) == 0 {
		return nil, fmt.Errorf("%w: empty index", ErrBadTable)
	}
	bl, err := f.View(bloomOff, int(bloomLen))
	if err != nil {
		return nil, fmt.Errorf("%w: bloom: %v", ErrBadTable, err)
	}
	bloom, err := UnmarshalBloom(bl)
	if err != nil {
		return nil, err
	}
	t.bloom = bloom
	t.last = t.index[len(t.index)-1].lastKey
	// First key: decode the head of block 0.
	var b block
	if err := t.readBlock(0, &b); err != nil {
		return nil, err
	}
	if len(b.entries) == 0 {
		return nil, fmt.Errorf("%w: block 0 empty", ErrBadTable)
	}
	t.first = b.entries[0].key
	return t, nil
}

// Entries returns the number of keys in the table.
func (t *Table) Entries() uint64 { return t.entries }

// Smallest returns the table's smallest key.
func (t *Table) Smallest() []byte { return t.first }

// Largest returns the table's largest key.
func (t *Table) Largest() []byte { return t.last }

// Blocks returns the number of data blocks.
func (t *Table) Blocks() int { return len(t.index) }

// File returns the backing file (experiment plumbing: per-file readahead).
func (t *Table) File() *vfs.File { return t.f }

type entry struct {
	key, value []byte
}

// block is one decoded data block: entries slicing the table file's own
// bytes. An Iterator owns one and reuses its entry slice for every block
// it crosses, so a scan allocates O(1), not per block.
type block struct {
	entries []entry
	warmed  byte // see warm
}

// view reads data block i through the page cache and returns the file's
// own bytes for it.
func (t *Table) view(i int) ([]byte, error) {
	e := t.index[i]
	raw, err := t.f.View(e.off, int(e.length))
	if err != nil {
		return nil, fmt.Errorf("%w: block %d: %v", ErrBadTable, i, err)
	}
	return raw, nil
}

// readBlock reads data block i through the page cache and decodes it in
// place into b, overwriting whatever b held. On error b's contents are
// unspecified.
func (t *Table) readBlock(i int, b *block) error {
	raw, err := t.view(i)
	if err != nil {
		return err
	}
	b.warmed = warm(raw)
	out := b.entries[:0]
	if out == nil {
		// First block: size for the table's mean entries per block so a
		// uniform table never regrows. The count comes from the footer,
		// so bound it by what the block could physically hold (an entry
		// is at least 3 bytes).
		hint := t.entries/uint64(len(t.index)) + 1
		if most := uint64(len(raw) / 3); hint > most {
			hint = most
		}
		out = make([]entry, 0, hint)
	}
	for len(raw) > 0 {
		klen, n := binary.Uvarint(raw)
		if klen == 0 {
			break // zero key length marks end-of-block padding
		}
		if n <= 0 || int(klen) > len(raw)-n {
			return fmt.Errorf("%w: block %d entry", ErrBadTable, i)
		}
		raw = raw[n:]
		key := raw[:klen:klen]
		raw = raw[klen:]
		vlen, n := binary.Uvarint(raw)
		if n <= 0 || int(vlen) > len(raw)-n {
			return fmt.Errorf("%w: block %d value", ErrBadTable, i)
		}
		raw = raw[n:]
		val := raw[:vlen:vlen]
		raw = raw[vlen:]
		out = append(out, entry{key: key, value: val})
	}
	b.entries = out
	return nil
}

// cacheLine is the line size warm steps by: 64 bytes on the hosts this
// runs on; a larger line only makes some of its loads redundant.
const cacheLine = 64

// warm loads one byte from every cache line of p and returns their sum.
// Decoding a block is a chain of dependent loads: each entry's offset comes
// from the lengths in the entry before it, so on a block not yet in the
// core's own caches every entry costs one cache miss, one after another.
// These loads depend on nothing, so the CPU overlaps them, and the decode
// that follows hits L1 — the streaming a copy into a buffer used to do.
// The caller stores the sum only so the loads are not optimized away.
func warm(p []byte) (sum byte) {
	for i := 0; i < len(p); i += cacheLine {
		sum += p[i]
	}
	return sum
}

// blockFor returns the index of the first block whose lastKey ≥ key, or
// len(index) if key is beyond the table.
func (t *Table) blockFor(key []byte) int {
	lo, hi := 0, len(t.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.index[mid].lastKey, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value stored under key. The bloom filter short-circuits
// most misses without touching data blocks; the hit path scans one block
// in place over the file's own bytes, so Get does not allocate.
// The returned value aliases the table file: it stays valid for the
// table's life, and the caller must not modify it.
func (t *Table) Get(key []byte) (value []byte, ok bool, err error) {
	if !t.bloom.MayContain(key) {
		return nil, false, nil
	}
	bi := t.blockFor(key)
	if bi >= len(t.index) {
		return nil, false, nil
	}
	raw, err := t.view(bi)
	if err != nil {
		return nil, false, err
	}
	for len(raw) > 0 {
		klen, n := binary.Uvarint(raw)
		if klen == 0 {
			break
		}
		if n <= 0 || int(klen) > len(raw)-n {
			return nil, false, fmt.Errorf("%w: block %d entry", ErrBadTable, bi)
		}
		raw = raw[n:]
		k := raw[:klen]
		raw = raw[klen:]
		vlen, n := binary.Uvarint(raw)
		if n <= 0 || int(vlen) > len(raw)-n {
			return nil, false, fmt.Errorf("%w: block %d value", ErrBadTable, bi)
		}
		raw = raw[n:]
		v := raw[:vlen:vlen]
		raw = raw[vlen:]
		switch bytes.Compare(k, key) {
		case 0:
			return v, true, nil
		case 1:
			return nil, false, nil // sorted: passed the key
		}
	}
	return nil, false, nil
}

// Iterator walks a table forward or backward. The zero position is
// invalid; call SeekToFirst, SeekToLast, or Seek.
//
// The iterator owns the decoded entries of the block it stands in and
// reuses them when it crosses into another block. Key and Value are valid
// only until the iterator next moves (Next, Prev or any Seek); a caller
// that keeps them longer must copy. That they happen to alias the table
// file is not part of the contract.
type Iterator struct {
	t       *Table
	blockID int
	block   // the current block; entries is empty when none is loaded
	pos     int
	err     error
}

// NewIterator returns an unpositioned iterator.
func (t *Table) NewIterator() *Iterator {
	return &Iterator{t: t, blockID: -1, pos: -1}
}

func (it *Iterator) load(blockID int) bool {
	if blockID < 0 || blockID >= len(it.t.index) {
		it.entries = it.entries[:0]
		it.blockID = -1
		return false
	}
	if err := it.t.readBlock(blockID, &it.block); err != nil {
		it.err = err
		it.entries = it.entries[:0]
		return false
	}
	it.blockID = blockID
	return true
}

// SeekToFirst positions at the table's smallest key.
func (it *Iterator) SeekToFirst() {
	if it.load(0) {
		it.pos = 0
	}
}

// SeekToLast positions at the table's largest key.
func (it *Iterator) SeekToLast() {
	if it.load(len(it.t.index) - 1) {
		it.pos = len(it.entries) - 1
	}
}

// Seek positions at the first key ≥ key (invalid if none).
func (it *Iterator) Seek(key []byte) {
	bi := it.t.blockFor(key)
	if !it.load(bi) {
		it.pos = -1
		return
	}
	lo, hi := 0, len(it.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(it.entries[mid].key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.pos = lo
	if it.pos >= len(it.entries) {
		// key is above this block's last key but within the next block.
		if it.load(bi + 1) {
			it.pos = 0
		} else {
			it.pos = -1
		}
	}
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool {
	return it.err == nil && it.pos >= 0 && it.pos < len(it.entries)
}

// Next advances forward.
func (it *Iterator) Next() {
	if !it.Valid() {
		return
	}
	it.pos++
	if it.pos >= len(it.entries) {
		if it.load(it.blockID + 1) {
			it.pos = 0
		} else {
			it.pos = -1
		}
	}
}

// Prev advances backward.
func (it *Iterator) Prev() {
	if !it.Valid() {
		return
	}
	it.pos--
	if it.pos < 0 {
		prev := it.blockID - 1
		if it.load(prev) {
			it.pos = len(it.entries) - 1
		} else {
			it.pos = -1
		}
	}
}

// Key returns the current key (valid only while Valid, and only until the
// iterator next moves).
func (it *Iterator) Key() []byte { return it.entries[it.pos].key }

// Value returns the current value (valid only while Valid, and only until
// the iterator next moves).
func (it *Iterator) Value() []byte { return it.entries[it.pos].value }

// Err returns the first I/O or decode error the iterator hit.
func (it *Iterator) Err() error { return it.err }
