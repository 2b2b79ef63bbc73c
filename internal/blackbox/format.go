// Package blackbox is the durable flight recorder: a fixed-size
// circular on-disk ring that continuously persists the in-memory
// observability state (metrics snapshots, time-series points, decision
// traces, learner transitions) so the last seconds before ANY exit —
// SIGKILL, OOM, panic, power loss — can be reconstructed from disk.
//
// The file is a header sector followed by a ring of records. Every
// record is sector-aligned and independently CRC-guarded, so recovery
// never depends on an index or a clean shutdown: `kml-ctl postmortem` scans
// sector boundaries, keeps everything whose checksums verify, and
// tolerates a torn tail record (the one write the crash interrupted).
// Record payloads reuse the canonical wire encodings the protocol
// already fuzzes (mserve metrics/learn-status, tsrec series, dtrace
// traces), so one set of codecs serves both the wire and the disk.
//
// The file is sector 0, the header (fileHeaderLayout), then the ring:
// records each starting on a sector boundary, a header
// (recordHeaderLayout) and its payload, zero-padded to the next boundary.
//
// A record never wraps across the ring end: when the tail is too short
// the writer restarts at offset 0 and the stale tail bytes simply stop
// decoding (old records there remain recoverable until overwritten).
package blackbox

import (
	"errors"

	"repro/internal/wire"
)

const (
	// SectorSize is the write granularity: every record starts on a
	// 512-byte boundary, the sector size disks have honored for decades,
	// so a torn write clobbers at most the record it interrupted plus
	// the records its claimed span overlaps — never the alignment of the
	// rest of the ring.
	SectorSize = 512

	// FileHeaderSize is the header sector prefixed to the ring.
	FileHeaderSize = SectorSize

	// FormatVersion is the on-disk format revision.
	FormatVersion = 1

	// RecordHeaderSize is the fixed prefix of every record.
	RecordHeaderSize = 36

	// MaxRecordPayload bounds one record's payload, matching mserve's
	// frame ceiling: anything the wire can carry, the black box can hold.
	MaxRecordPayload = 1 << 20

	// MinFileSize is the smallest useful black box: the header sector
	// plus 64 KiB of ring.
	MinFileSize = FileHeaderSize + 64*1024
)

// fileMagic opens every black-box file ("KMLBBOX1" little-endian).
const fileMagic uint64 = 0x31584f42424c4d4b

// recordMagic opens every record header ("KBR1" little-endian).
const recordMagic uint32 = 0x3152424B

// Kind identifies a record's payload encoding.
type Kind uint8

// Record kinds and their payload codecs.
const (
	// KindMetrics: mserve.AppendMetrics / ParseMetrics.
	KindMetrics Kind = 1
	// KindTimeSeries: tsrec.AppendSeries / ParseSeries.
	KindTimeSeries Kind = 2
	// KindTraces: dtrace.AppendTraces / ParseTraces.
	KindTraces Kind = 3
	// KindLearn: mserve.AppendLearnStatus / ParseLearnStatus.
	KindLearn Kind = 4
)

// String names a kind for reports.
func (k Kind) String() string {
	switch k {
	case KindMetrics:
		return "metrics"
	case KindTimeSeries:
		return "timeseries"
	case KindTraces:
		return "traces"
	case KindLearn:
		return "learn"
	}
	return "?"
}

// ErrNotBlackbox reports a file whose header does not verify as a
// black box (wrong magic, unsupported version, corrupt header CRC).
var ErrNotBlackbox = errors.New("blackbox: not a black-box file")

// alignSector rounds n up to the next sector boundary.
//
//kml:hotpath
func alignSector(n int) int {
	return (n + SectorSize - 1) &^ (SectorSize - 1)
}

// fileHeaderLayout is sector 0, little-endian:
//
//	magic        u64   "KMLBBOX1"
//	version      u32   (FormatVersion)
//	sector size  u32   (SectorSize)
//	ring bytes   i64   (file size - header sector; > 0, whole sectors)
//	created      i64   unix nanos
//	crc32        u32   (IEEE, over the 32 bytes above)
//	zero padding to FileHeaderSize, not read back
func fileHeaderLayout(c *wire.Codec, h *fileHeader) {
	start := c.Mark()
	magic, version, sector := fileMagic, uint32(FormatVersion), uint32(SectorSize)
	c.U64(&magic)
	c.U32(&version)
	c.U32(&sector)
	c.I64(&h.ringBytes)
	c.I64(&h.createdNanos)
	c.CRC32(start)
	c.Check(magic == fileMagic && version == FormatVersion && sector == SectorSize &&
		h.ringBytes > 0 && h.ringBytes%SectorSize == 0)
	c.Pad(FileHeaderSize - 36)
}

type fileHeader struct {
	ringBytes, createdNanos int64
}

// putFileHeader encodes the header sector into dst[:FileHeaderSize].
func putFileHeader(dst []byte, ringBytes int64, createdNanos int64) {
	c := wire.Encoder(dst[:0])
	fileHeaderLayout(&c, &fileHeader{ringBytes, createdNanos})
}

// parseFileHeader validates a header sector and returns the declared
// ring size and creation stamp.
func parseFileHeader(p []byte) (ringBytes int64, createdNanos int64, err error) {
	h, err := wire.Parse(p[:min(len(p), FileHeaderSize)], fileHeaderLayout, ErrNotBlackbox)
	return h.ringBytes, h.createdNanos, err
}

// recordHeader is the fixed prefix of a record.
type recordHeader struct {
	magic     uint32
	kind      Kind
	seq       uint64 // monotonic from 1, never reused within a file
	timeNanos int64  // unix nanos
	plen      uint32 // payload bytes, ≤ MaxRecordPayload
	pcrc      uint32 // IEEE CRC-32 of the payload
}

// recordHeaderLayout is a record header, RecordHeaderSize bytes: magic
// u32 "KBR1", kind u8, three zero bytes (not read back), seq u64, time
// i64, payload length u32, payload CRC u32, then the IEEE CRC-32 of the 32
// bytes before it. The magic is walked, not checked, so a scan can tell
// ring noise (no magic) from a torn header (magic, bad CRC).
//
//kml:hotpath
func recordHeaderLayout(c *wire.Codec, h *recordHeader) {
	start := c.Mark()
	c.U32(&h.magic)
	c.U8((*uint8)(&h.kind))
	c.Pad(3)
	c.U64(&h.seq)
	c.I64(&h.timeNanos)
	c.U32(&h.plen)
	c.U32(&h.pcrc)
	c.CRC32(start)
}

// putRecordHeader encodes one record header into dst[:RecordHeaderSize].
// The payload CRC is computed by the caller (it already holds the
// payload bytes); this keeps the function a pure field encoder.
//
//kml:hotpath
func putRecordHeader(dst []byte, kind Kind, seq uint64, timeNanos int64, payloadLen int, payloadCRC uint32) {
	h := recordHeader{recordMagic, kind, seq, timeNanos, uint32(payloadLen), payloadCRC}
	c := wire.Encoder(dst[:0])
	recordHeaderLayout(&c, &h)
}

// parseRecordHeader decodes the record header at the front of p. It
// reports whether the header verifies; h.magic is read whenever p holds
// its four bytes.
func parseRecordHeader(p []byte) (h recordHeader, ok bool) {
	c := wire.Decoder(p[:min(len(p), RecordHeaderSize)])
	recordHeaderLayout(&c, &h)
	return h, c.End(ErrNotBlackbox) == nil
}
