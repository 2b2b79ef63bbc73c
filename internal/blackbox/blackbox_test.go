package blackbox

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/telemetry/tsrec"
)

func openTestBox(t *testing.T, size int64) (*Recorder, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bb.bin")
	r, err := Open(Config{Path: path, Size: size})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return r, path
}

// testPayload builds a deterministic payload of length n seeded by s.
func testPayload(n int, s byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = s + byte(i*7)
	}
	return p
}

func TestRecordRoundTrip(t *testing.T) {
	r, path := openTestBox(t, 0)
	want := []struct {
		kind Kind
		time int64
		n    int
	}{
		{KindMetrics, 1000, 1},
		{KindTimeSeries, 2000, 400},
		{KindTraces, 3000, 513}, // spans two sectors
		{KindLearn, 4000, 0},    // empty payload is legal
		{KindMetrics, 5000, 4096},
	}
	for i, w := range want {
		if !r.Record(w.kind, w.time, testPayload(w.n, byte(i))) {
			t.Fatalf("record %d rejected", i)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	res, err := ScanFile(path)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if res.Torn != 0 {
		t.Fatalf("clean box scanned %d torn records", res.Torn)
	}
	if len(res.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(res.Records), len(want))
	}
	for i, rec := range res.Records {
		w := want[i]
		if rec.Seq != uint64(i+1) || rec.Kind != w.kind || rec.TimeNanos != w.time {
			t.Fatalf("record %d = seq %d kind %v t %d, want seq %d kind %v t %d",
				i, rec.Seq, rec.Kind, rec.TimeNanos, i+1, w.kind, w.time)
		}
		if !bytes.Equal(rec.Payload, testPayload(w.n, byte(i))) {
			t.Fatalf("record %d payload mismatch", i)
		}
		if rec.Offset%SectorSize != 0 {
			t.Fatalf("record %d offset %d not sector-aligned", i, rec.Offset)
		}
	}
}

func TestFreshBoxScansEmpty(t *testing.T) {
	r, path := openTestBox(t, 0)
	defer r.Close()
	// Scannable before a single record or flush: Open syncs the header.
	res, err := ScanFile(path)
	if err != nil {
		t.Fatalf("scan of fresh box: %v", err)
	}
	if len(res.Records) != 0 || res.Torn != 0 {
		t.Fatalf("fresh box: %d records, %d torn", len(res.Records), res.Torn)
	}
	if res.RingBytes != int64(len(r.ring)) {
		t.Fatalf("ring bytes %d, want %d", res.RingBytes, int64(len(r.ring)))
	}
}

func TestWrapKeepsLatest(t *testing.T) {
	r, path := openTestBox(t, MinFileSize) // 128-sector ring
	perRing := int(int64(len(r.ring))) / SectorSize
	total := perRing*2 + perRing/2
	for i := 0; i < total; i++ {
		// 100-byte payload: exactly one sector per record.
		if !r.Record(KindMetrics, int64(i), testPayload(100, byte(i))) {
			t.Fatalf("record %d rejected", i)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	res, err := ScanFile(path)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if res.Torn != 0 {
		t.Fatalf("wrap produced %d torn records", res.Torn)
	}
	if len(res.Records) != perRing {
		t.Fatalf("recovered %d records, want the newest %d", len(res.Records), perRing)
	}
	for i, rec := range res.Records {
		wantSeq := uint64(total - perRing + i + 1)
		if rec.Seq != wantSeq {
			t.Fatalf("record %d seq %d, want %d (keep-latest)", i, rec.Seq, wantSeq)
		}
	}
}

func TestOversizedAndClosedDrops(t *testing.T) {
	r, _ := openTestBox(t, MinFileSize)
	if r.Record(KindTraces, 1, make([]byte, MaxRecordPayload+1)) {
		t.Fatal("over-MaxRecordPayload record accepted")
	}
	if r.Record(KindTraces, 2, make([]byte, int(int64(len(r.ring))))) {
		t.Fatal("larger-than-ring record accepted")
	}
	if st := r.Status(); st.Dropped != 2 || st.Records != 0 {
		t.Fatalf("status = %+v, want 2 drops, 0 records", st)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if r.Record(KindTraces, 3, []byte{1}) {
		t.Fatal("record after Close accepted")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestResumeContinuesSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bb.bin")
	r1, err := Open(Config{Path: path})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 5; i++ {
		r1.Record(KindMetrics, int64(i), testPayload(64, byte(i)))
	}
	if err := r1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r2, err := Open(Config{Path: path})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st := r2.Status(); st.TornAtOpen != 0 {
		t.Fatalf("clean resume reported %d torn", st.TornAtOpen)
	}
	for i := 5; i < 8; i++ {
		r2.Record(KindTraces, int64(i), testPayload(64, byte(i)))
	}
	if err := r2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
	res, err := ScanFile(path)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(res.Records) != 8 || res.Torn != 0 {
		t.Fatalf("recovered %d records %d torn, want 8/0", len(res.Records), res.Torn)
	}
	for i, rec := range res.Records {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d seq %d: resume restarted the sequence", i, rec.Seq)
		}
	}
	if res.Records[7].Kind != KindTraces {
		t.Fatalf("post-resume record kind %v", res.Records[7].Kind)
	}
}

func TestGeometryChangeRecreates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bb.bin")
	r1, err := Open(Config{Path: path})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	r1.Record(KindMetrics, 1, testPayload(10, 0))
	if err := r1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r2, err := Open(Config{Path: path, Size: MinFileSize})
	if err != nil {
		t.Fatalf("reopen resized: %v", err)
	}
	defer r2.Close()
	if st := r2.Status(); st.RingBytes != uint64(MinFileSize-FileHeaderSize) {
		t.Fatalf("resized ring = %d bytes", st.RingBytes)
	}
	r2.Record(KindMetrics, 2, testPayload(10, 1))
	if err := r2.Flush(true); err != nil {
		t.Fatalf("flush: %v", err)
	}
	res, err := ScanFile(path)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("recreated box holds %d records, want 1", len(res.Records))
	}
	if res.Records[0].Seq != 1 {
		t.Fatalf("recreated box starts at seq %d, want a fresh seq 1", res.Records[0].Seq)
	}
}

func TestMergeTimeSeries(t *testing.T) {
	mk := func(t0 int64, n int) []byte {
		s := tsrec.Series{
			IntervalNanos: 1000,
			Counters:      []string{"rows"},
			Hists:         []string{"lat"},
		}
		for i := 0; i < n; i++ {
			s.Points = append(s.Points, tsrec.Point{TimeNanos: t0 + int64(i)*1000})
		}
		return tsrec.AppendSeries(nil, s)
	}
	recs := []Record{
		{Seq: 1, Kind: KindTimeSeries, Payload: mk(0, 3)},
		{Seq: 2, Kind: KindMetrics, Payload: []byte{0, 0, 0, 0}},
		{Seq: 3, Kind: KindTimeSeries, Payload: mk(3000, 2)},
		{Seq: 4, Kind: KindTimeSeries, Payload: []byte{1, 2, 3}}, // corrupt
	}
	s, skipped := MergeTimeSeries(recs)
	if skipped != 1 {
		t.Fatalf("skipped %d, want 1", skipped)
	}
	if len(s.Points) != 5 || s.IntervalNanos != 1000 ||
		len(s.Counters) != 1 || s.Counters[0] != "rows" {
		t.Fatalf("merged series %+v", s)
	}
	for i, p := range s.Points {
		if p.TimeNanos != int64(i)*1000 {
			t.Fatalf("point %d at %d, want %d", i, p.TimeNanos, int64(i)*1000)
		}
	}
}
