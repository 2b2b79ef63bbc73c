// Recovery: reconstructing a timeline from a black-box file with no
// help from the process that wrote it. The scanner walks sector
// boundaries, keeps every record whose header and payload CRCs verify,
// and classifies the rest: a sector that does not start with the
// record magic is just ring noise (padding, the stale tail after a
// wrap, half-overwritten old records), while a record header that
// verifies — or starts with the magic — but whose body does not is a
// TORN record, the write a crash interrupted. A cleanly written ring
// scans with zero torn records; a crash mid-flush yields exactly one
// torn tail in write order, the invariant the recovery tests pin.
package blackbox

import (
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"repro/internal/dtrace"
	"repro/internal/mserve"
	"repro/internal/telemetry/tsrec"
)

// Record is one recovered record.
type Record struct {
	Seq       uint64
	TimeNanos int64
	Kind      Kind
	Offset    int64  // file offset of the record header
	Payload   []byte // copied out of the scanned image
}

// ScanResult is a recovered black box.
type ScanResult struct {
	RingBytes    int64
	CreatedNanos int64
	Records      []Record // sorted by Seq, ascending
	Torn         int      // records whose header or payload failed CRC
}

// Scan recovers every intact record from an in-memory black-box image.
// The image may be truncated (a partial copy of a live file): records
// extending past the end count as torn.
func Scan(data []byte) (ScanResult, error) {
	ringBytes, created, err := parseFileHeader(data)
	if err != nil {
		return ScanResult{}, err
	}
	// parseFileHeader accepted a whole header sector, so avail ≥ 0.
	avail := int64(len(data)) - FileHeaderSize
	if ringBytes > avail {
		ringBytes = avail &^ (SectorSize - 1)
	}
	recs, torn := scanRing(data[FileHeaderSize:FileHeaderSize+ringBytes], FileHeaderSize)
	// A truncated image may cut a record mid-payload past the last whole
	// sector; count the dangling partial sector as torn if it starts
	// like a record.
	if h, _ := parseRecordHeader(data[FileHeaderSize+ringBytes:]); h.magic == recordMagic {
		torn++
	}
	return ScanResult{
		RingBytes:    ringBytes,
		CreatedNanos: created,
		Records:      recs,
		Torn:         torn,
	}, nil
}

// ScanFile reads and recovers a black-box file.
func ScanFile(path string) (ScanResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ScanResult{}, fmt.Errorf("blackbox: %w", err)
	}
	return Scan(data)
}

// scanRing walks one ring image. base is the ring's file offset, used
// only to stamp Record.Offset. Returned records are sorted by seq.
func scanRing(ring []byte, base int64) ([]Record, int) {
	var recs []Record
	torn := 0
	for off := 0; off < len(ring); {
		h, ok := parseRecordHeader(ring[off:])
		if len(ring)-off < RecordHeaderSize {
			// Too little room for a header; if it still opens with the
			// magic it is a torn header at the ring's physical end.
			if h.magic == recordMagic {
				torn++
			}
			break
		}
		if h.magic != recordMagic {
			off += SectorSize
			continue
		}
		if !ok {
			// Magic present but the header does not verify: a torn
			// header write. Resync at the next sector.
			torn++
			off += SectorSize
			continue
		}
		plen := int(h.plen)
		if plen > MaxRecordPayload {
			torn++
			off += SectorSize
			continue
		}
		if off+RecordHeaderSize+plen > len(ring) {
			// The header verifies but the claimed payload runs past the
			// image: a truncated tail.
			torn++
			break
		}
		payload := ring[off+RecordHeaderSize : off+RecordHeaderSize+plen]
		if crc32.ChecksumIEEE(payload) != h.pcrc {
			// Torn payload. Skip the claimed span: its sectors belong to
			// the interrupted write, not to older records.
			torn++
			off += alignSector(RecordHeaderSize + plen)
			continue
		}
		recs = append(recs, Record{
			Seq:       h.seq,
			TimeNanos: h.timeNanos,
			Kind:      h.kind,
			Offset:    base + int64(off),
			Payload:   append([]byte(nil), payload...),
		})
		off += alignSector(RecordHeaderSize + plen)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs, torn
}

// MergeTimeSeries reassembles the KindTimeSeries records of a scan into
// one continuous series, oldest point first — the shape the series
// printer consumes. Records that fail to parse
// are skipped; the count of skipped records is returned so a report can
// disclose them. An empty scan yields an empty series.
func MergeTimeSeries(recs []Record) (tsrec.Series, int) {
	var out tsrec.Series
	skipped := 0
	for _, rec := range recs {
		if rec.Kind != KindTimeSeries {
			continue
		}
		s, err := tsrec.ParseSeries(rec.Payload)
		if err != nil {
			skipped++
			continue
		}
		if len(out.Counters) == 0 && len(out.Hists) == 0 {
			out.IntervalNanos = s.IntervalNanos
			out.Counters = s.Counters
			out.Hists = s.Hists
		}
		out.Points = append(out.Points, s.Points...)
	}
	return out, skipped
}

// Contents is what a window of records decodes to, in capture order.
type Contents struct {
	Series  tsrec.Series             // every time-series record, merged
	Metrics []mserve.MetricsSnapshot // one per metrics record
	Learn   []mserve.LearnStatus     // one per recorded learner transition
	Traces  []dtrace.Trace           // one per TraceID, first sighting first; the newest capture wins
	Skipped int                      // records whose payload did not decode
}

// Decode parses every record the Sampler writes back into the surfaces
// it captured them from.
func Decode(recs []Record) Contents {
	var c Contents
	c.Series, c.Skipped = MergeTimeSeries(recs)
	seen := map[dtrace.TraceID]int{}
	for _, r := range recs {
		var err error
		switch r.Kind {
		case KindMetrics:
			var snap mserve.MetricsSnapshot
			if snap, err = mserve.ParseMetrics(r.Payload); err == nil {
				c.Metrics = append(c.Metrics, snap)
			}
		case KindLearn:
			var st mserve.LearnStatus
			if st, err = mserve.ParseLearnStatus(r.Payload); err == nil {
				c.Learn = append(c.Learn, st)
			}
		case KindTraces:
			var traces []dtrace.Trace
			traces, err = dtrace.ParseTraces(r.Payload)
			for _, tr := range traces {
				if i, ok := seen[tr.ID]; ok {
					c.Traces[i] = tr
				} else {
					seen[tr.ID] = len(c.Traces)
					c.Traces = append(c.Traces, tr)
				}
			}
		}
		if err != nil {
			c.Skipped++
		}
	}
	return c
}
