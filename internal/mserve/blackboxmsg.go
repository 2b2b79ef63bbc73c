// MsgBlackbox payload: the wire form of the black-box flight
// recorder's status. Like MsgLearnStatus it is pull-based — the
// embedding process (kml-served) registers a status source on the
// server — and the request carries one opcode: stat (read-only) or
// sync (force a capture and a synced flush first, so the answered path
// names a file that is current to this instant). The response is how a
// remote `kml-ctl postmortem` locates and freshens a live server's box
// without stopping it.
//
// Layout (all integers little-endian):
//
//	request:  u8 op                 (BlackboxStat | BlackboxSync)
//	response:
//	  u8  enabled                   (0 or 1)
//	  u64 records | u64 dropped | u64 flushes | u64 ring_bytes
//	  u64 torn_at_open
//	  i64 last_flush_ns             (0 = never)
//	  u16 pathlen                   (≤ MaxBlackboxPath; 0 iff no path)
//	  pathlen bytes of path
//
// Every field is fixed-width and checked on decode (DESIGN.md "Wire
// encodings").
package mserve

import "repro/internal/wire"

// MsgBlackbox request opcodes.
const (
	// BlackboxStat reads the status without touching the file.
	BlackboxStat = 0
	// BlackboxSync captures + flushes + fsyncs before answering.
	BlackboxSync = 1
)

// MaxBlackboxPath bounds the path on the wire.
const MaxBlackboxPath = 1024

// BlackboxStatus is the snapshot MsgBlackbox carries. The zero value
// (Enabled false) is what a server without a black box answers.
type BlackboxStatus struct {
	Enabled        bool
	Records        uint64 // records appended since open
	Dropped        uint64 // records rejected (oversized)
	Flushes        uint64 // completed write-backs
	RingBytes      uint64 // on-disk ring capacity
	TornAtOpen     uint64 // torn records found when the file was resumed
	LastFlushNanos int64  // wall clock of the last flush (0 = none)
	Path           string // black-box file path on the server's host
}

// AppendBlackboxReq appends a MsgBlackbox request payload.
func AppendBlackboxReq(dst []byte, op uint8) []byte {
	return wire.Append(dst, op, blackboxReqLayout)
}

// ParseBlackboxReq decodes a MsgBlackbox request, rejecting unknown
// opcodes and trailing bytes.
func ParseBlackboxReq(p []byte) (uint8, error) {
	return wire.Parse(p, blackboxReqLayout, ErrBadMessage)
}

func blackboxReqLayout(c *wire.Codec, op *uint8) {
	c.U8(op)
	c.Check(*op <= BlackboxSync)
}

// AppendBlackboxStatus appends the canonical wire form of st. Paths
// beyond MaxBlackboxPath are truncated.
func AppendBlackboxStatus(dst []byte, st BlackboxStatus) []byte {
	return wire.Append(dst, st, blackboxStatusLayout)
}

// ParseBlackboxStatus decodes a status payload, rejecting out-of-range
// enabled bytes, oversized paths, and length mismatches with
// ErrBadMessage.
func ParseBlackboxStatus(p []byte) (BlackboxStatus, error) {
	return wire.Parse(p, blackboxStatusLayout, ErrBadMessage)
}

func blackboxStatusLayout(c *wire.Codec, st *BlackboxStatus) {
	c.Bool(&st.Enabled)
	for _, v := range [...]*uint64{&st.Records, &st.Dropped, &st.Flushes, &st.RingBytes, &st.TornAtOpen} {
		c.U64(v)
	}
	c.I64(&st.LastFlushNanos)
	c.String16(&st.Path, MaxBlackboxPath)
}
