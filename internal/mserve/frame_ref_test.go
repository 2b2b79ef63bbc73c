package mserve

// The frame-header codec as it was before it ran on internal/wire, kept
// verbatim (renamed ref*) as the oracle for
// TestFrameHeaderMatchesReference. It is the reference implementation:
// do not "fix" it.

import (
	"encoding/binary"
	"hash/crc32"
)

func refPutHeader(dst []byte, typ MsgType, payload []byte) {
	_ = dst[HeaderSize-1]
	dst[0] = 'K'
	dst[1] = 'M'
	dst[2] = FrameVersion
	dst[3] = byte(typ)
	binary.LittleEndian.PutUint32(dst[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[8:12], crc32.ChecksumIEEE(payload))
}

func refParseHeader(b []byte) (Header, error) {
	var h Header
	if len(b) < HeaderSize {
		return h, ErrShortFrame
	}
	if b[0] != 'K' || b[1] != 'M' {
		return h, ErrBadMagic
	}
	h.Version = b[2]
	h.Type = MsgType(b[3])
	h.Length = binary.LittleEndian.Uint32(b[4:8])
	h.CRC = binary.LittleEndian.Uint32(b[8:12])
	if h.Version != FrameVersion {
		return h, ErrVersionSkew
	}
	if h.Length > MaxPayload {
		return h, ErrOversizedFrame
	}
	return h, nil
}
