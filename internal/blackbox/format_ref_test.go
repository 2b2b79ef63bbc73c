package blackbox

// The black-box header codecs and the ring scanner as they were before
// the headers ran on internal/wire, kept verbatim (renamed ref*) as the
// oracle for TestHeadersMatchReference and TestScanMatchesReference. They
// are the reference implementations: do not "fix" them.

import (
	"encoding/binary"
	"hash/crc32"
	"sort"
)

var refFileMagic = [8]byte{'K', 'M', 'L', 'B', 'B', 'O', 'X', '1'}

func refPutFileHeader(dst []byte, ringBytes int64, createdNanos int64) {
	for i := range dst[:FileHeaderSize] {
		dst[i] = 0
	}
	copy(dst, refFileMagic[:])
	binary.LittleEndian.PutUint32(dst[8:], FormatVersion)
	binary.LittleEndian.PutUint32(dst[12:], SectorSize)
	binary.LittleEndian.PutUint64(dst[16:], uint64(ringBytes))
	binary.LittleEndian.PutUint64(dst[24:], uint64(createdNanos))
	binary.LittleEndian.PutUint32(dst[32:], crc32.ChecksumIEEE(dst[:32]))
}

func refParseFileHeader(p []byte) (ringBytes int64, createdNanos int64, err error) {
	if len(p) < FileHeaderSize {
		return 0, 0, ErrNotBlackbox
	}
	if [8]byte(p[:8]) != refFileMagic ||
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

func refPutRecordHeader(dst []byte, kind Kind, seq uint64, timeNanos int64, payloadLen int, payloadCRC uint32) {
	binary.LittleEndian.PutUint32(dst, recordMagic)
	dst[4] = byte(kind)
	dst[5], dst[6], dst[7] = 0, 0, 0
	binary.LittleEndian.PutUint64(dst[8:], seq)
	binary.LittleEndian.PutUint64(dst[16:], uint64(timeNanos))
	binary.LittleEndian.PutUint32(dst[24:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(dst[28:], payloadCRC)
	binary.LittleEndian.PutUint32(dst[32:], crc32.ChecksumIEEE(dst[:32]))
}

func refScan(data []byte) (ScanResult, error) {
	ringBytes, created, err := refParseFileHeader(data)
	if err != nil {
		return ScanResult{}, err
	}
	avail := int64(len(data)) - FileHeaderSize
	if avail < 0 {
		avail = 0
	}
	if ringBytes > avail {
		ringBytes = avail &^ (SectorSize - 1)
	}
	recs, torn := refScanRing(data[FileHeaderSize:FileHeaderSize+ringBytes], FileHeaderSize)
	if tail := int64(len(data)) - FileHeaderSize - ringBytes; tail >= 4 {
		p := data[FileHeaderSize+ringBytes:]
		if binary.LittleEndian.Uint32(p) == recordMagic {
			torn++
		}
	}
	return ScanResult{
		RingBytes:    ringBytes,
		CreatedNanos: created,
		Records:      recs,
		Torn:         torn,
	}, nil
}

func refScanRing(ring []byte, base int64) ([]Record, int) {
	var recs []Record
	torn := 0
	for off := 0; off < len(ring); {
		if len(ring)-off < RecordHeaderSize {
			if len(ring)-off >= 4 && binary.LittleEndian.Uint32(ring[off:]) == recordMagic {
				torn++
			}
			break
		}
		h := ring[off : off+RecordHeaderSize]
		if binary.LittleEndian.Uint32(h) != recordMagic {
			off += SectorSize
			continue
		}
		if binary.LittleEndian.Uint32(h[32:]) != crc32.ChecksumIEEE(h[:32]) {
			torn++
			off += SectorSize
			continue
		}
		kind := Kind(h[4])
		seq := binary.LittleEndian.Uint64(h[8:])
		timeNanos := int64(binary.LittleEndian.Uint64(h[16:]))
		plen := int(binary.LittleEndian.Uint32(h[24:]))
		pcrc := binary.LittleEndian.Uint32(h[28:])
		if plen > MaxRecordPayload {
			torn++
			off += SectorSize
			continue
		}
		if off+RecordHeaderSize+plen > len(ring) {
			torn++
			break
		}
		payload := ring[off+RecordHeaderSize : off+RecordHeaderSize+plen]
		if crc32.ChecksumIEEE(payload) != pcrc {
			torn++
			off += alignSector(RecordHeaderSize + plen)
			continue
		}
		recs = append(recs, Record{
			Seq:       seq,
			TimeNanos: timeNanos,
			Kind:      kind,
			Offset:    base + int64(off),
			Payload:   append([]byte(nil), payload...),
		})
		off += alignSector(RecordHeaderSize + plen)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs, torn
}
