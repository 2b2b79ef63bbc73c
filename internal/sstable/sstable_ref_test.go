package sstable

// The table decoders as they were before they ran on internal/wire, kept
// verbatim (renamed ref*) as the oracle for TestTableMatchesReference:
// the footer, index and bloom decoders. They are the reference
// implementations: do not "fix" them. The data-block layout changed after
// them (keys first), so the block decoder, refReadBlock in
// sstable_test.go, and refGet below are independent decoders of that
// layout, written against binary.Uvarint rather than the codec.

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/vfs"
)

func refOpen(f *vfs.File) (*Table, error) {
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
	bloom, err := refUnmarshalBloom(bl)
	if err != nil {
		return nil, err
	}
	t.bloom = bloom
	t.last = t.index[len(t.index)-1].lastKey
	// First key: decode the head of block 0.
	entries0, err := refReadBlock(t, 0)
	if err != nil {
		return nil, err
	}
	if len(entries0) == 0 {
		return nil, fmt.Errorf("%w: block 0 empty", ErrBadTable)
	}
	t.first = entries0[0].key
	return t, nil
}

// refGet is not the pre-codec lookup: that one decoded the old
// one-record-per-entry blocks. It scans the keys-first layout, kind byte
// beside the key, with refBlockEntries, stopping at the first key ≥ key
// as Get does.
func refGet(t *Table, key []byte) (value []byte, tombstone, ok bool, err error) {
	if !t.bloom.MayContain(key) {
		return nil, false, false, nil
	}
	bi := t.blockFor(key)
	if bi >= len(t.index) {
		return nil, false, false, nil
	}
	e := t.index[bi]
	raw, err := t.f.View(e.off, int(e.length))
	if err != nil {
		return nil, false, false, fmt.Errorf("%w: block %d: %v", ErrBadTable, bi, err)
	}
	var last entry
	_, stopped, err := refBlockEntries(raw, bi, func(e entry) bool {
		last = e
		return bytes.Compare(e.key, key) >= 0
	})
	if err != nil || !stopped || !bytes.Equal(last.key, key) {
		return nil, false, false, err
	}
	return last.value, last.tombstone, true, nil
}

func refUnmarshalBloom(data []byte) (*Bloom, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("sstable: bloom too short (%d bytes)", len(data))
	}
	k := binary.LittleEndian.Uint32(data)
	if k == 0 || k > 30 {
		return nil, fmt.Errorf("sstable: bloom k=%d", k)
	}
	bits := make([]byte, len(data)-4)
	copy(bits, data[4:])
	return &Bloom{bits: bits, k: k}, nil
}
