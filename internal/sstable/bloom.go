// Package sstable implements the sorted-string-table file format the
// simulated LSM key-value store (internal/kvstore) persists its data in:
// sorted key/value entries packed into page-aligned data blocks, a block
// index for binary search, and a bloom filter to skip tables during point
// lookups — the same structure RocksDB tables have, so the page-cache
// access patterns the paper's classifier learns from are reproduced
// faithfully (index probe + scattered data-block reads for point queries,
// contiguous block streams for scans).
package sstable

import (
	"bytes"

	"repro/internal/wire"
)

// Bloom is a split block-style bloom filter with double hashing.
type Bloom struct {
	bits []byte
	k    uint32
}

// NewBloom sizes a filter for n keys at bitsPerKey bits each (10 gives
// ~1% false positives).
func NewBloom(n, bitsPerKey int) *Bloom {
	if n < 1 {
		n = 1
	}
	if bitsPerKey < 1 {
		bitsPerKey = 10
	}
	bits := n * bitsPerKey
	if bits < 64 {
		bits = 64
	}
	nbytes := (bits + 7) / 8
	// k = bitsPerKey * ln2 ≈ 0.69 * bitsPerKey, clamped to [1, 30].
	k := uint32(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return &Bloom{bits: make([]byte, nbytes), k: k}
}

// fnv64a hashes key with the FNV-1a function (stdlib hash/fnv semantics,
// inlined to stay allocation-free).
func fnv64a(key []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// Add inserts key into the filter.
func (b *Bloom) Add(key []byte) { b.addHash(fnv64a(key)) }

// addHash inserts a key by its fnv64a hash, which is all the filter keeps
// of it; a Builder hashes each key as it arrives instead of holding a copy
// until Finish sizes the filter.
func (b *Bloom) addHash(h uint64) {
	delta := h>>33 | h<<31
	nbits := uint64(len(b.bits)) * 8
	for i := uint32(0); i < b.k; i++ {
		pos := h % nbits
		b.bits[pos/8] |= 1 << (pos % 8)
		h += delta
	}
}

// MayContain reports whether key might be in the set (definite no on
// false).
func (b *Bloom) MayContain(key []byte) bool {
	if len(b.bits) == 0 {
		return true
	}
	h := fnv64a(key)
	delta := h>>33 | h<<31
	nbits := uint64(len(b.bits)) * 8
	for i := uint32(0); i < b.k; i++ {
		pos := h % nbits
		if b.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// bloomLayout is the filter: k u32 (1..30), then the bit array, at least
// one byte, to the end of the span.
func bloomLayout(c *wire.Codec, b *Bloom) {
	c.U32(&b.k)
	c.Check(b.k >= 1 && b.k <= 30)
	c.Tail(&b.bits)
	c.Check(len(b.bits) > 0)
}

// Marshal encodes the filter.
func (b *Bloom) Marshal() []byte { return wire.Append(nil, *b, bloomLayout) }

// UnmarshalBloom decodes a filter produced by Marshal into a copy of its
// bits.
func UnmarshalBloom(data []byte) (*Bloom, error) {
	b, err := wire.Parse(data, bloomLayout, errBadBloom)
	if err != nil {
		return nil, err
	}
	b.bits = bytes.Clone(b.bits)
	return &b, nil
}
