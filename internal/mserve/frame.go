// Wire framing. Every message on a serving connection is one frame: a
// header (headerLayout), then the payload.
//
// Both ends read frames through a frameReader: one growable buffer per
// connection end, filled by whatever one Read returns, so a small request
// costs one read and several pipelined frames can arrive in one. Length is
// bounded before any allocation is sized by it (the same hostile-header
// discipline as nn.Load), and the CRC rejects corrupt or truncated
// payloads before they reach a decoder.
package mserve

import (
	"errors"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/wire"
)

// Frame constants.
const (
	// FrameVersion is the wire-protocol version carried in every header.
	// A peer speaking a different version is rejected with ErrVersionSkew
	// rather than misparsed. Version 2 added the u64 trace-ID prefix to
	// the MsgInfer/MsgBatchInfer request payloads (cross-process trace
	// propagation) and the MsgTimeSeries message.
	FrameVersion = 2
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 12
	// MaxPayload bounds one frame's payload. It must admit a Deploy frame
	// carrying a serialized model; KML models are a few KB (the paper's
	// readahead model is 3,916 B), so 1 MiB is generous.
	MaxPayload = 1 << 20
	// frameMagic opens every frame ("KM" little-endian).
	frameMagic = 0x4d4b
)

// Frame decode errors.
var (
	// ErrShortFrame reports a header or payload shorter than declared.
	ErrShortFrame = errors.New("mserve: short frame")
	// ErrBadMagic reports a frame that does not start with "KM".
	ErrBadMagic = errors.New("mserve: bad frame magic")
	// ErrVersionSkew reports a frame from a peer speaking another protocol
	// version.
	ErrVersionSkew = errors.New("mserve: frame version skew")
	// ErrOversizedFrame reports a declared payload length above MaxPayload.
	ErrOversizedFrame = errors.New("mserve: oversized frame")
	// ErrBadFrameCRC reports a payload failing its header checksum.
	ErrBadFrameCRC = errors.New("mserve: frame checksum mismatch")
)

// Header is a decoded frame header.
type Header struct {
	Version uint8
	Type    MsgType
	Length  uint32
	CRC     uint32
}

// headerLayout is the frame header, HeaderSize bytes, little-endian:
//
//	magic   u16   "KM"
//	version u8    (FrameVersion)
//	type    u8    message type (protocol.go)
//	length  u32   payload bytes, <= MaxPayload
//	crc     u32   IEEE CRC-32 of the payload
//
// It checks nothing, so ParseHeader can tell its errors apart.
//
//kml:hotpath
func headerLayout(c *wire.Codec, magic *uint16, h *Header) {
	c.U16(magic)
	c.U8(&h.Version)
	c.U8((*uint8)(&h.Type))
	c.U32(&h.Length)
	c.U32(&h.CRC)
}

// PutHeader writes the header for payload into dst, which must be at least
// HeaderSize bytes. It runs once per request on the serving path, so it
// writes into a caller-owned buffer and does not allocate.
//
//kml:hotpath
func PutHeader(dst []byte, typ MsgType, payload []byte) {
	_ = dst[HeaderSize-1]
	appendHeader(dst[:0], typ, payload)
}

// appendHeader appends the header for payload to dst.
//
//kml:hotpath
func appendHeader(dst []byte, typ MsgType, payload []byte) []byte {
	magic, h := uint16(frameMagic), Header{FrameVersion, typ, uint32(len(payload)), crc32.ChecksumIEEE(payload)}
	c := wire.Encoder(dst)
	headerLayout(&c, &magic, &h)
	return c.Bytes()
}

// ParseHeader decodes and validates a frame header. The returned header's
// Length is guaranteed <= MaxPayload, so sizing a read buffer by it is
// safe.
//
//kml:hotpath
func ParseHeader(b []byte) (Header, error) {
	var h Header
	if len(b) < HeaderSize {
		return h, ErrShortFrame
	}
	var magic uint16
	c := wire.Decoder(b[:HeaderSize])
	headerLayout(&c, &magic, &h)
	switch {
	case magic != frameMagic:
		return Header{}, ErrBadMagic
	case h.Version != FrameVersion:
		return h, ErrVersionSkew
	case h.Length > MaxPayload:
		return h, ErrOversizedFrame
	}
	return h, nil
}

// CheckPayload verifies that payload matches the header's declared length
// and checksum.
//
//kml:hotpath
func (h Header) CheckPayload(payload []byte) error {
	if uint32(len(payload)) != h.Length {
		return ErrShortFrame
	}
	if crc32.ChecksumIEEE(payload) != h.CRC {
		return ErrBadFrameCRC
	}
	return nil
}

// DecodeFrame consumes one complete frame from the front of b, returning
// the message type, the payload (aliasing b), and the unconsumed rest.
// It is the one entry point a byte-stream decoder needs and the surface
// FuzzFrameDecode drives with hostile input: short buffers, truncated
// headers, lying lengths and version skew must all return an error, never
// panic or over-read.
func DecodeFrame(b []byte) (typ MsgType, payload, rest []byte, err error) {
	h, err := ParseHeader(b)
	if err != nil {
		return 0, nil, b, err
	}
	end := HeaderSize + int(h.Length) // Length <= MaxPayload: no overflow
	if len(b) < end {
		return 0, nil, b, ErrShortFrame
	}
	payload = b[HeaderSize:end]
	if err := h.CheckPayload(payload); err != nil {
		return 0, nil, b, err
	}
	return h.Type, payload, b[end:], nil
}

// AppendFrame appends one complete frame to dst and returns the extended
// slice — the encoder counterpart of DecodeFrame.
func AppendFrame(dst []byte, typ MsgType, payload []byte) []byte {
	return append(appendHeader(dst, typ, payload), payload...)
}

// frameReadSize is a frameReader's initial buffer: room for many small
// frames per Read. A larger frame grows the buffer to exactly its size.
const frameReadSize = 4 << 10

// frameReader decodes frames from a byte stream through one growable
// buffer. It reads only when no complete frame is buffered, and then takes
// whatever one Read returns, so frames that arrive together are decoded
// without further reads. The zero value is ready to use.
type frameReader struct {
	buf  []byte
	r, w int // buf[r:w] is read but not yet returned
	// stamp makes every Read that returns data record the time in readNS,
	// which is then, after next returns, when the read that completed the
	// returned frame came back.
	stamp  bool
	readNS int64
}

// reset discards anything buffered, for a reader reused on a new stream.
func (fr *frameReader) reset() { fr.r, fr.w = 0, 0 }

// next returns the next frame's header and payload, reading from src only
// when the buffer does not already hold a complete frame. The payload
// aliases the reader's buffer and is valid until the next call. Header and
// payload pass ParseHeader and CheckPayload, so the buffer never grows
// past HeaderSize+MaxPayload. A stream that ends between frames returns
// io.EOF; one that ends inside a frame returns io.ErrUnexpectedEOF.
func (fr *frameReader) next(src io.Reader) (Header, []byte, error) {
	for {
		need := HeaderSize
		if fr.w-fr.r >= HeaderSize {
			h, err := ParseHeader(fr.buf[fr.r:fr.w])
			if err != nil {
				return h, nil, err
			}
			need += int(h.Length) // Length <= MaxPayload: no overflow
			if fr.w-fr.r >= need {
				payload := fr.buf[fr.r+HeaderSize : fr.r+need]
				if err := h.CheckPayload(payload); err != nil {
					return h, nil, err
				}
				fr.r += need
				return h, payload, nil
			}
		}
		fr.makeRoom(need)
		n, err := src.Read(fr.buf[fr.w:])
		fr.w += n
		if fr.stamp && n > 0 {
			fr.readNS = time.Now().UnixNano()
		}
		if n > 0 || err == nil {
			continue // data with an error is used first; the next Read repeats the error
		}
		if err == io.EOF && fr.w > fr.r {
			err = io.ErrUnexpectedEOF
		}
		return Header{}, nil, err
	}
}

// makeRoom ensures buf[r:] can hold need bytes, moving the unread bytes to
// the front or into a larger buffer.
func (fr *frameReader) makeRoom(need int) {
	if fr.r == fr.w {
		fr.r, fr.w = 0, 0
	}
	if fr.r+need <= len(fr.buf) {
		return
	}
	buf := fr.buf
	if need > len(buf) {
		buf = make([]byte, max(need, frameReadSize))
	}
	fr.w = copy(buf, fr.buf[fr.r:fr.w])
	fr.r = 0
	fr.buf = buf
}
