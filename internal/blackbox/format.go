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
// File layout (all integers little-endian):
//
//	sector 0 (FileHeaderSize bytes, zero-padded):
//	  [8]byte magic "KMLBBOX1"
//	  u32     format version (1)
//	  u32     sector size (512)
//	  u64     ring bytes (file size - header sector)
//	  i64     created unix nanos
//	  u32     crc32-IEEE of bytes [0,32)
//
//	ring (repeated records, each starting on a sector boundary):
//	  u32     record magic "KBR1"
//	  u8      kind (KindMetrics..KindLearn)
//	  [3]byte zero padding
//	  u64     seq (monotonic from 1, never reused within a file)
//	  i64     record unix nanos
//	  u32     payload length (≤ MaxRecordPayload)
//	  u32     crc32-IEEE of the payload
//	  u32     crc32-IEEE of the 32 header bytes above
//	  payload, zero-padded to the next sector boundary
//
// A record never wraps across the ring end: when the tail is too short
// the writer restarts at offset 0 and the stale tail bytes simply stop
// decoding (old records there remain recoverable until overwritten).
package blackbox

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// fileMagic opens every black-box file.
var fileMagic = [8]byte{'K', 'M', 'L', 'B', 'B', 'O', 'X', '1'}

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

// putFileHeader encodes the header sector into dst[:FileHeaderSize].
func putFileHeader(dst []byte, ringBytes int64, createdNanos int64) {
	for i := range dst[:FileHeaderSize] {
		dst[i] = 0
	}
	copy(dst, fileMagic[:])
	binary.LittleEndian.PutUint32(dst[8:], FormatVersion)
	binary.LittleEndian.PutUint32(dst[12:], SectorSize)
	binary.LittleEndian.PutUint64(dst[16:], uint64(ringBytes))
	binary.LittleEndian.PutUint64(dst[24:], uint64(createdNanos))
	binary.LittleEndian.PutUint32(dst[32:], crc32.ChecksumIEEE(dst[:32]))
}

// parseFileHeader validates a header sector and returns the declared
// ring size and creation stamp.
func parseFileHeader(p []byte) (ringBytes int64, createdNanos int64, err error) {
	if len(p) < FileHeaderSize {
		return 0, 0, ErrNotBlackbox
	}
	if [8]byte(p[:8]) != fileMagic ||
		binary.LittleEndian.Uint32(p[8:]) != FormatVersion ||
		binary.LittleEndian.Uint32(p[12:]) != SectorSize ||
		binary.LittleEndian.Uint32(p[32:]) != crc32.ChecksumIEEE(p[:32]) {
		return 0, 0, ErrNotBlackbox
	}
	ringBytes = int64(binary.LittleEndian.Uint64(p[16:]))
	createdNanos = int64(binary.LittleEndian.Uint64(p[24:]))
	if ringBytes <= 0 || ringBytes%SectorSize != 0 {
		return 0, 0, ErrNotBlackbox
	}
	return ringBytes, createdNanos, nil
}

// putRecordHeader encodes one record header into dst[:RecordHeaderSize].
// The payload CRC is computed by the caller (it already holds the
// payload bytes); this keeps the function a pure field encoder.
//
//kml:hotpath
func putRecordHeader(dst []byte, kind Kind, seq uint64, timeNanos int64, payloadLen int, payloadCRC uint32) {
	binary.LittleEndian.PutUint32(dst, recordMagic)
	dst[4] = byte(kind)
	dst[5], dst[6], dst[7] = 0, 0, 0
	binary.LittleEndian.PutUint64(dst[8:], seq)
	binary.LittleEndian.PutUint64(dst[16:], uint64(timeNanos))
	binary.LittleEndian.PutUint32(dst[24:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(dst[28:], payloadCRC)
	binary.LittleEndian.PutUint32(dst[32:], crc32.ChecksumIEEE(dst[:32]))
}
