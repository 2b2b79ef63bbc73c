package sstable

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/vfs"
	"repro/internal/wire"
)

// File layout:
//
//	data block 0 | data block 1 | ... | index | bloom | footer
//
// A data block is keys first:
//
//	uvarint(len(keys)) | keys: per entry, entryLayout | values, in entry order
//
// so a point lookup scans one short, contiguous key section (9 entries of
// a 15-byte key and a 401-byte record fill a 4 KB block with ~170 bytes of
// keys) and touches only the value it returns. The head and the key
// section are one length-prefixed byte string; the values fill the rest
// of the block, whose length the index records. Keys are strictly
// ascending across the whole table. The index is one indexLayout entry
// per block, the bloom filter is bloomLayout, and the footer is
// footerLayout, the file's last footerSize bytes.
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

var (
	errBadFooter = fmt.Errorf("%w: footer", ErrBadTable)
	errBadIndex  = fmt.Errorf("%w: index", ErrBadTable)
	errBadBloom  = fmt.Errorf("%w: bloom", ErrBadTable)
)

// entryLayout is a key-section entry: the key as length-prefixed bytes,
// then the length of its value as a uvarint. The Builder writes it;
// readBlock and Get decode an entry, with its value, with
// wire.CutSplitKeyValue, its decoder over plain slices, so their loops
// keep the block in registers.
func entryLayout(c *wire.Codec, key *[]byte, vlen *uint64) {
	c.VarBytes(key)
	c.Uvarint(vlen)
}

// indexLayout is an index entry: the block's largest key as
// length-prefixed bytes, then the block's offset and length as uvarints.
func indexLayout(c *wire.Codec, e *indexEntry) {
	off, n := uint64(e.off), uint64(e.length)
	c.VarBytes(&e.lastKey)
	c.Uvarint(&off)
	c.Uvarint(&n)
	if c.Decoding() {
		e.off, e.length = int64(off), int64(n)
	}
}

// footer locates the index and the bloom filter.
type footer struct {
	indexOff, indexLen, bloomOff, bloomLen, entries uint64
}

// footerLayout is the footer: indexOff, indexLen, bloomOff, bloomLen,
// the entry count and the magic, u64 each.
func footerLayout(c *wire.Codec, f *footer) {
	magic := uint64(tableMagic)
	for _, v := range []*uint64{&f.indexOff, &f.indexLen, &f.bloomOff, &f.bloomLen, &f.entries, &magic} {
		c.U64(v)
	}
	c.Check(magic == tableMagic)
}

// inside reports whether a non-empty span lies within the file's size
// bytes, without an overflowing sum.
func (f footer) inside(size uint64) bool {
	return f.indexLen > 0 && f.indexOff <= size && f.indexLen <= size-f.indexOff &&
		f.bloomOff >= f.indexOff+f.indexLen && f.bloomOff <= size && f.bloomLen <= size-f.bloomOff
}

// Builder writes a table. Add keys in strictly ascending order, then call
// Finish.
type Builder struct {
	f         *vfs.File
	blockSize int
	keys      []byte // the current block's key section
	values    []byte // the current block's values
	block     []byte // the assembled block, reused
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
	// Flush first if this entry would overflow the block, keeping blocks
	// within one aligned unit (an oversized single entry still gets its
	// own block). The keys and values together are what one key/value
	// record per entry took, so the uvarint key-section length is all a
	// block adds to that.
	entrySize := 2*wire.MaxUvarintLen + len(key) + len(value)
	if size := len(b.keys) + len(b.values); size > 0 && size+entrySize > b.blockSize {
		if err := b.flushBlock(); err != nil {
			return err
		}
	}
	vlen := uint64(len(value))
	c := wire.Encoder(b.keys)
	entryLayout(&c, &key, &vlen)
	b.keys = c.Bytes()
	b.values = append(b.values, value...)
	b.lastKey = append(b.lastKey[:0], key...)
	if b.firstKey == nil {
		b.firstKey = append([]byte(nil), key...)
	}
	b.hashes = append(b.hashes, fnv64a(key))
	b.entries++
	return nil
}

func (b *Builder) flushBlock() error {
	if len(b.keys) == 0 {
		return nil
	}
	c := wire.Encoder(b.block[:0])
	c.VarBytes(&b.keys)
	b.block = append(c.Bytes(), b.values...)
	b.keys, b.values = b.keys[:0], b.values[:0]
	if _, err := b.f.WriteAt(b.block, b.offset); err != nil {
		return err
	}
	b.index = append(b.index, indexEntry{
		lastKey: append([]byte(nil), b.lastKey...),
		off:     b.offset,
		length:  int64(len(b.block)),
	})
	// Page-align the next block; the index's lengths skip the gap.
	b.offset = (b.offset + int64(len(b.block)) + blockAlign - 1) &^ (blockAlign - 1)
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
	c := wire.Encoder(nil)
	for i := range b.index {
		indexLayout(&c, &b.index[i])
	}
	idx := c.Bytes()
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
	ft := wire.Append(nil, footer{uint64(indexOff), uint64(len(idx)), uint64(bloomOff), uint64(len(bl)), b.entries}, footerLayout)
	if _, err := b.f.WriteAt(ft, b.offset); err != nil {
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
	raw, err := f.View(size-footerSize, footerSize)
	if err != nil {
		return nil, fmt.Errorf("%w: footer: %v", ErrBadTable, err)
	}
	ft, err := wire.Parse(raw, footerLayout, errBadFooter)
	if err != nil {
		return nil, err
	}
	if !ft.inside(uint64(size)) {
		return nil, fmt.Errorf("%w: footer offsets", ErrBadTable)
	}
	idx, err := f.View(int64(ft.indexOff), int(ft.indexLen))
	if err != nil {
		return nil, fmt.Errorf("%w: index: %v", ErrBadTable, err)
	}
	t := &Table{f: f, entries: ft.entries}
	c := wire.Decoder(idx)
	for c.More() {
		var e indexEntry
		indexLayout(&c, &e)
		t.index = append(t.index, e)
	}
	if err := c.End(errBadIndex); err != nil {
		return nil, err
	}
	bl, err := f.View(int64(ft.bloomOff), int(ft.bloomLen))
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
// own bytes for it, split into the key section and the values.
func (t *Table) view(i int) (keys, values []byte, err error) {
	e := t.index[i]
	raw, err := t.f.View(e.off, int(e.length))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: block %d: %v", ErrBadTable, i, err)
	}
	keys, values, ok := wire.CutVarBytes(raw)
	if !ok {
		return nil, nil, fmt.Errorf("%w: block %d keys", ErrBadTable, i)
	}
	return keys, values, nil
}

// readBlock reads data block i through the page cache and decodes it in
// place into b, overwriting whatever b held. On error b's contents are
// unspecified.
func (t *Table) readBlock(i int, b *block) error {
	keys, values, err := t.view(i)
	if err != nil {
		return err
	}
	b.warmed = warm(values)
	out := b.entries[:0]
	if out == nil {
		// First block: size for the table's mean entries per block so a
		// uniform table never regrows. The count comes from the footer,
		// so bound it by what the key section could physically hold (a
		// key entry is at least 3 bytes).
		hint := t.entries/uint64(len(t.index)) + 1
		if most := uint64(len(keys) / 3); hint > most {
			hint = most
		}
		out = make([]entry, 0, hint)
	}
	var e entry
	var ok bool
	for len(keys) > 0 {
		if e.key, e.value, keys, values, ok = wire.CutSplitKeyValue(keys, values); !ok {
			return entryErr(e.key, i)
		}
		out = append(out, e)
	}
	b.entries = out
	if len(values) > 0 {
		return fmt.Errorf("%w: block %d values", ErrBadTable, i)
	}
	return nil
}

// entryErr reports which part of an entry of data block i, whose key is
// key, did not decode.
func entryErr(key []byte, i int) error {
	if key != nil {
		return fmt.Errorf("%w: block %d value", ErrBadTable, i)
	}
	return fmt.Errorf("%w: block %d entry", ErrBadTable, i)
}

// cacheLine is the line size warm steps by: 64 bytes on the hosts this
// runs on; a larger line only makes some of its loads redundant.
const cacheLine = 64

// warm loads one byte from every cache line of p and returns their sum.
// A scan reads every value of a block it crosses, and on a block not yet
// in the core's own caches each of those lines is a miss. These loads
// depend on nothing, so the CPU overlaps them, and the scan that follows
// hits L1 — the streaming a copy into a buffer used to do. Get skips it:
// its caller reads one value. The caller stores the sum only so the loads
// are not optimized away.
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
// most misses without touching data blocks; the hit path scans one
// block's key section in place over the file's own bytes and slices the
// value it returns without loading any, so Get does not allocate and the
// one value line a lookup loads is the one its caller reads.
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
	keys, values, err := t.view(bi)
	if err != nil {
		return nil, false, err
	}
	var k, v []byte
	for len(keys) > 0 {
		if k, v, keys, values, ok = wire.CutSplitKeyValue(keys, values); !ok {
			return nil, false, entryErr(k, bi)
		}
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
