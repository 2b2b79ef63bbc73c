// Package wire is the one codec behind the daemon's message payloads and
// every durable file format. A message or format declares its byte layout
// once, as a function over a *Codec; on an encoder that function appends
// the message, on a decoder it parses it, so the two directions cannot
// drift apart.
//
// Integers are little-endian, floats IEEE-754 bit patterns. A decoder's
// error is sticky: after the first short read or failed Check every read
// leaves its target untouched. A count is checked against its bound and
// the unread input before it may size an allocation, and End rejects
// trailing bytes. An encoder writes what it is given and never writes
// through a layout's pointers; only the stated clamps (Name, String16,
// the list bounds) normalize a value. A layout that checks exactly what
// it writes is canonical by construction: Append(Parse(b)) == b for every
// accepted b. DESIGN.md "Wire encodings" has the full contract.
package wire

import (
	"encoding/binary"
	"hash/crc32"
	"math"
)

// Codec walks one message layout in one direction.
type Codec struct {
	buf []byte // encoder: the output so far; decoder: the unread input
	dec bool
	bad bool
}

// MaxUvarintLen is the most bytes a Uvarint takes.
const MaxUvarintLen = binary.MaxVarintLen64

// Encoder returns a codec that appends to dst.
//
//kml:hotpath
func Encoder(dst []byte) Codec { return Codec{buf: dst} }

// Decoder returns a codec that parses p.
//
//kml:hotpath
func Decoder(p []byte) Codec { return Codec{buf: p, dec: true} }

// Append runs layout over v as an encoder.
func Append[T any](dst []byte, v T, layout func(*Codec, *T)) []byte {
	c := Encoder(dst)
	layout(&c, &v)
	return c.buf
}

// Parse runs layout as a decoder over p. It returns the zero T and bad
// unless End accepts the decode.
func Parse[T any](p []byte, layout func(*Codec, *T), bad error) (T, error) {
	var v T
	c := Decoder(p)
	layout(&c, &v)
	if err := c.End(bad); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// Decoding reports whether c parses rather than appends.
func (c *Codec) Decoding() bool { return c.dec }

// Bytes returns an encoder's output.
//
//kml:hotpath
func (c *Codec) Bytes() []byte { return c.buf }

// End returns nil if a decode read all its input, every read in bounds
// and every Check true, and bad otherwise.
//
//kml:hotpath
func (c *Codec) End(bad error) error {
	if c.bad || len(c.buf) != 0 {
		return bad
	}
	return nil
}

// More reports whether a decode is still good and has input left: the
// loop condition of a stream of records.
//
//kml:hotpath
func (c *Codec) More() bool { return !c.bad && len(c.buf) > 0 }

// Check fails a decode unless ok, stating a layout's enum and range
// rules; an encoder ignores it. It reports whether the codec is still
// good, so a layout can guard an index it derived from decoded values.
//
//kml:hotpath
func (c *Codec) Check(ok bool) bool {
	if c.dec && !ok {
		c.bad = true
	}
	return !c.bad
}

// Fits fails a decode unless the unread input holds n more bytes; an
// encoder ignores it. A layout calls it before a count read from the
// input sizes an allocation, and it reports whether the codec is still
// good.
func (c *Codec) Fits(n uint64) bool { return c.Check(n <= uint64(len(c.buf))) }

// read consumes n input bytes, or fails the decode and returns nil.
//
//kml:hotpath
func (c *Codec) read(n int) []byte {
	if c.bad || n > len(c.buf) {
		c.bad = true
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

// extend lengthens an encoder's output by n bytes and returns them.
//
//kml:hotpath
func (c *Codec) extend(n int) []byte {
	at := len(c.buf)
	if cap(c.buf)-at < n {
		c.grow(n)
	}
	c.buf = c.buf[:at+n]
	return c.buf[at:]
}

// grow makes room for n more output bytes. An encoder over a buffer its
// caller sized, as the frame and record headers are, never reaches it.
//
//kml:coldpath
func (c *Codec) grow(n int) {
	c.buf = append(c.buf, make([]byte, n)...)
	c.buf = c.buf[:len(c.buf)-n]
}

// U8 walks one byte.
//
//kml:hotpath
func (c *Codec) U8(v *uint8) {
	if !c.dec {
		c.extend(1)[0] = *v
	} else if b := c.read(1); b != nil {
		*v = b[0]
	}
}

// U16 walks a uint16.
//
//kml:hotpath
func (c *Codec) U16(v *uint16) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *v)
	} else if b := c.read(2); b != nil {
		*v = binary.LittleEndian.Uint16(b)
	}
}

// U32 walks a uint32.
//
//kml:hotpath
func (c *Codec) U32(v *uint32) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	} else if b := c.read(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

// U64 walks a uint64.
//
//kml:hotpath
func (c *Codec) U64(v *uint64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if b := c.read(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// I64 walks an int64 as its two's-complement bit pattern.
//
//kml:hotpath
func (c *Codec) I64(v *int64) {
	u := uint64(*v)
	if c.U64(&u); c.dec {
		*v = int64(u)
	}
}

// Bool walks a byte that must be 0 or 1.
func (c *Codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	if c.U8(&b); c.Check(b <= 1) && c.dec {
		*v = b == 1
	}
}

// F64s walks len(v) float64s with one bounds check. A decoder walks one
// re-sliced run of input. An encoder appends each value: into a buffer
// with room, that loop is shorter than storing through a re-sliced one.
//
//kml:hotpath
func (c *Codec) F64s(v []float64) {
	if !c.dec {
		out := c.buf
		for _, f := range v {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
		}
		c.buf = out
	} else if b := c.read(8 * len(v)); b != nil {
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	}
}

// U16s walks len(v) uint16s with one bounds check.
//
//kml:hotpath
func (c *Codec) U16s(v []uint16) {
	if !c.dec {
		out := c.buf
		for _, x := range v {
			out = binary.LittleEndian.AppendUint16(out, x)
		}
		c.buf = out
	} else if b := c.read(2 * len(v)); b != nil {
		for i := range v {
			v[i] = binary.LittleEndian.Uint16(b)
			b = b[2:]
		}
	}
}

// Uvarint walks a uint64 as an unsigned LEB128 varint, the encoding of
// binary.AppendUvarint. A decoder accepts what binary.Uvarint accepts,
// overlong forms included, and fails a truncated or over-64-bit varint.
func (c *Codec) Uvarint(v *uint64) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	x, n := binary.Uvarint(c.buf)
	if c.Check(n > 0) {
		*v, c.buf = x, c.buf[n:]
	}
}

// VarBytes walks length-prefixed bytes: a Uvarint length, then that many
// bytes. A decoder compares the length with the unread input as a uint64,
// so no length wraps past the check, and sets *b to the input's own bytes
// with the capacity clipped, so an append to it cannot reach the bytes
// after it.
func (c *Codec) VarBytes(b *[]byte) {
	if !c.dec {
		c.buf = appendVarBytes(c.buf, *b)
		return
	}
	if v, rest, ok := CutVarBytes(c.buf); c.Check(ok) {
		*b, c.buf = v, rest
	}
}

// KeyValue walks a key/value record, two VarBytes, and returns the fields
// instead of storing them: an encoder appends key and value and returns
// them unchanged; a decoder returns the record it read or, if that does
// not decode or the decode has failed, what it was given.
func (c *Codec) KeyValue(key, value []byte) ([]byte, []byte) {
	if !c.dec {
		c.buf = appendVarBytes(appendVarBytes(c.buf, key), value)
		return key, value
	}
	k, rest, ok := CutVarBytes(c.buf)
	v, rest, ok2 := CutVarBytes(rest)
	if c.Check(ok && ok2) {
		c.buf = rest
		return k, v
	}
	return key, value
}

// CutVarBytes is VarBytes's decoder over a plain slice: it splits
// length-prefixed bytes off the front of p and returns them, capacity
// clipped, and the rest; or nil, p and false if they do not fit. The
// length is compared with the input as a uint64, so none wraps past the
// check.
func CutVarBytes(p []byte) (b, rest []byte, ok bool) {
	n, k := binary.Uvarint(p)
	if k <= 0 || n > uint64(len(p)-k) {
		return nil, p, false
	}
	end := k + int(n)
	return p[k:end:end], p[end:], true
}

// CutSplitKeyValue splits a key/value record stored keys first off the
// front of two slices: from keys, length-prefixed key bytes and a uvarint
// value length (what VarBytes and then Uvarint write); from values, that
// many bytes. ok is false unless all of it fits; key is then the decoded
// key if that part did, else nil. It is one call per record, with both
// varint decodes inline, because a table's block scan runs it per entry.
func CutSplitKeyValue(keys, values []byte) (key, value, restKeys, restValues []byte, ok bool) {
	n, k := binary.Uvarint(keys)
	if k <= 0 || n > uint64(len(keys)-k) {
		return nil, nil, keys, values, false
	}
	end := k + int(n)
	key, keys = keys[k:end:end], keys[end:]
	if n, k = binary.Uvarint(keys); k <= 0 || n > uint64(len(values)) {
		return key, nil, keys, values, false
	}
	return key, values[:n:n], keys[k:], values[n:], true
}

func appendVarBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// Pad walks n bytes of padding: an encoder writes zeros, a decoder skips
// whatever is there.
//
//kml:hotpath
func (c *Codec) Pad(n int) {
	if !c.dec {
		clear(c.extend(n))
	} else {
		c.read(n)
	}
}

// A Mark is a position in a codec's stream: where a CRC32 span starts.
type Mark struct {
	off  int    // encoder: the output length at the mark
	rest []byte // decoder: the unread input at the mark
}

// Mark returns the current position.
//
//kml:hotpath
func (c *Codec) Mark() Mark {
	if c.dec {
		return Mark{rest: c.buf}
	}
	return Mark{off: len(c.buf)}
}

// CRC32 walks the IEEE CRC-32 of the bytes walked since m as a U32: an
// encoder appends it, a decoder fails unless it matches.
//
//kml:hotpath
func (c *Codec) CRC32(m Mark) {
	var sum uint32
	if c.dec {
		sum = crc32.ChecksumIEEE(m.rest[:len(m.rest)-len(c.buf)])
	} else {
		sum = crc32.ChecksumIEEE(c.buf[m.off:])
	}
	got := sum
	c.U32(&got)
	c.Check(got == sum)
}

// Len8 walks a u8 count of elements that each take at least size bytes.
// A decoder fails unless the count is at most max and that many elements
// fit in the unread input; a failed count reads as 0.
func (c *Codec) Len8(n *int, max, size int) {
	v := uint8(*n)
	c.U8(&v)
	c.count(n, int(v), max, size)
}

// Len16 is Len8 with a u16 count.
//
//kml:hotpath
func (c *Codec) Len16(n *int, max, size int) {
	v := uint16(*n)
	c.U16(&v)
	c.count(n, int(v), max, size)
}

//kml:hotpath
func (c *Codec) count(n *int, v, max, size int) {
	if c.dec {
		if !c.Check(v <= max && v*size <= len(c.buf)) {
			v = 0
		}
		*n = v
	}
}

// Name walks a u8-length string of 1..max bytes (max ≤ 255). An encoder
// truncates a longer string and writes "" as "?".
func (c *Codec) Name(s *string, max int) {
	if !c.dec && *s == "" {
		q := "?"
		s = &q
	}
	n := min(len(*s), max)
	c.Len8(&n, max, 1)
	c.Check(n >= 1)
	c.text(s, n)
}

// String16 walks a u16-length string of at most max bytes. An encoder
// truncates a longer string.
func (c *Codec) String16(s *string, max int) {
	n := min(len(*s), max)
	c.Len16(&n, max, 1)
	c.text(s, n)
}

func (c *Codec) text(s *string, n int) {
	if !c.dec {
		c.buf = append(c.buf, (*s)[:n]...)
	} else if b := c.read(n); !c.bad {
		*s = string(b)
	}
}

// Tail walks the rest of the payload as raw bytes; a decoded *b aliases
// the input.
func (c *Codec) Tail(b *[]byte) {
	if !c.dec {
		c.buf = append(c.buf, *b...)
	} else if !c.bad {
		*b, c.buf = c.buf, c.buf[len(c.buf):]
	}
}

// List8 walks a u8-counted list, each element laid out by elem and taking
// at least size bytes. An encoder writes the first max elements (Newest
// keeps the last ones instead); a decoder sizes the list only after the
// count passes Len8.
func List8[E any](c *Codec, s *[]E, max, size int, elem func(*Codec, *E)) {
	n := min(len(*s), max)
	c.Len8(&n, max, size)
	list(c, s, n, elem)
}

// List16 is List8 with a u16 count.
func List16[E any](c *Codec, s *[]E, max, size int, elem func(*Codec, *E)) {
	n := min(len(*s), max)
	c.Len16(&n, max, size)
	list(c, s, n, elem)
}

func list[E any](c *Codec, s *[]E, n int, elem func(*Codec, *E)) {
	if c.dec {
		*s = make([]E, n)
	}
	for i := range (*s)[:n] {
		elem(c, &(*s)[i])
	}
}

// Newest returns the last n elements of s: the keep-latest clamp.
func Newest[E any](s []E, n int) []E { return s[max(0, len(s)-n):] }
