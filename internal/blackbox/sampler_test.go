package blackbox

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/dtrace"
	"repro/internal/mserve"
)

func newTestServer(t *testing.T) *mserve.Server {
	t.Helper()
	reg, err := mserve.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	srv, err := mserve.NewServer(mserve.Config{Registry: reg})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	return srv
}

func countKinds(recs []Record) map[Kind]int {
	m := map[Kind]int{}
	for _, r := range recs {
		m[r.Kind]++
	}
	return m
}

func TestSamplerCapturesIncrementally(t *testing.T) {
	srv := newTestServer(t)
	path := filepath.Join(t.TempDir(), "bb.bin")
	bb, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(bb, srv)

	// Feed state: two time-series points, one trace, a learner status.
	rec := srv.TimeSeriesRecorder()
	rec.Tick(1_000)
	rec.Tick(2_000)
	var tb dtrace.Builder
	tb.Start(srv.TraceArena().NextID(), 10)
	sp := tb.Begin(dtrace.StageInfer, 0, 20)
	tb.End(sp, 30)
	srv.TraceArena().Record(tb.Finish(40))
	learn := mserve.LearnStatus{State: mserve.LearnCollecting, Examples: 17, BaselinePM: -1, CanaryPM: -1}
	srv.SetLearnSource(func() mserve.LearnStatus { return learn })

	s.Capture(5_000)
	if err := bb.Flush(true); err != nil {
		t.Fatal(err)
	}
	res, err := ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := countKinds(res.Records)
	if got[KindMetrics] != 1 || got[KindTimeSeries] != 1 || got[KindTraces] != 1 || got[KindLearn] != 1 {
		t.Fatalf("first capture kinds = %v, want one of each", got)
	}

	// Verify the payloads decode and carry the fed state.
	series, skipped := MergeTimeSeries(res.Records)
	if skipped != 0 || len(series.Points) != 2 || series.Points[0].TimeNanos != 1_000 {
		t.Fatalf("merged series: skipped=%d points=%+v", skipped, series.Points)
	}
	for _, r := range res.Records {
		switch r.Kind {
		case KindTraces:
			traces, err := dtrace.ParseTraces(r.Payload)
			if err != nil || len(traces) != 1 || traces[0].N != 2 {
				t.Fatalf("trace record: %v %+v", err, traces)
			}
		case KindLearn:
			st, err := mserve.ParseLearnStatus(r.Payload)
			if err != nil || st.State != mserve.LearnCollecting || st.Examples != 17 {
				t.Fatalf("learn record: %v %+v", err, st)
			}
		}
	}

	// A second capture with nothing new: one metrics snapshot only — the
	// cursors and the learn dedupe suppress everything already persisted.
	s.Capture(6_000)
	if err := bb.Flush(true); err != nil {
		t.Fatal(err)
	}
	res, err = ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got = countKinds(res.Records)
	if got[KindMetrics] != 2 || got[KindTimeSeries] != 1 || got[KindTraces] != 1 || got[KindLearn] != 1 {
		t.Fatalf("idle capture kinds = %v, want only one more metrics record", got)
	}

	// A learner transition is captured; an unchanged one stays deduped.
	learn.State = mserve.LearnRetraining
	learn.Retrains = 1
	s.Capture(7_000)
	s.Capture(8_000)
	if err := bb.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got = countKinds(res.Records)
	if got[KindLearn] != 2 {
		t.Fatalf("learn records = %d, want 2 (one per transition)", got[KindLearn])
	}
}

// TestSamplerCountsMissed: whatever the keep-latest rings overwrote
// before a capture drained them lands in blackbox_traces_missed /
// blackbox_points_missed, and the same capture's metrics record carries
// the counts — a flat history reads as "lost", not "quiet".
func TestSamplerCountsMissed(t *testing.T) {
	reg, err := mserve.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := mserve.NewServer(mserve.Config{Registry: reg, TraceCapacity: 4, TimeSeriesCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	path := filepath.Join(t.TempDir(), "bb.bin")
	bb, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(bb, srv)
	var tb dtrace.Builder
	for i := 0; i < 10; i++ {
		tb.Start(srv.TraceArena().NextID(), int64(i))
		srv.TraceArena().Record(tb.Finish(int64(i + 1)))
		srv.TimeSeriesRecorder().Tick(int64(i + 1))
	}
	s.Capture(100)
	if err := bb.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"blackbox_traces_missed": 6, "blackbox_points_missed": 6}
	for _, r := range res.Records {
		if r.Kind != KindMetrics {
			continue
		}
		snap, err := mserve.ParseMetrics(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range snap.Metrics {
			if w, ok := want[m.Name]; ok {
				if m.Value != w {
					t.Errorf("%s = %d, want %d", m.Name, m.Value, w)
				}
				delete(want, m.Name)
			}
		}
	}
	if len(want) != 0 {
		t.Fatalf("metrics capture lacks %v", want)
	}
}

// TestRecorderFlusherDrivesSampler pins the Start(capture) contract:
// the background flusher invokes the capture hook before every flush,
// so a crash loses at most one interval.
func TestRecorderFlusherDrivesSampler(t *testing.T) {
	srv := newTestServer(t)
	path := filepath.Join(t.TempDir(), "bb.bin")
	bb, err := Open(Config{Path: path, FlushInterval: 2_000_000}) // 2ms
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(bb, srv)
	srv.TimeSeriesRecorder().Tick(1)
	bb.Start(s.Capture)
	for i := 0; i < 500 && bb.Status().Flushes == 0; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	if err := bb.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := countKinds(res.Records)
	if got[KindMetrics] == 0 || got[KindTimeSeries] == 0 {
		t.Fatalf("flusher-driven capture persisted %v", got)
	}
}

// TestSamplerCaptureConcurrent: kml-served captures from the flusher, the
// MsgBlackbox sync opcode and its crash hooks at once. Two capturers and
// a flusher race here; every trace must still be persisted exactly once
// (the race detector catches an unserialized Capture outright).
func TestSamplerCaptureConcurrent(t *testing.T) {
	reg, err := mserve.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := mserve.NewServer(mserve.Config{Registry: reg, TraceCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	path := filepath.Join(t.TempDir(), "bb.bin")
	bb, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(bb, srv)
	const traces = 500
	var tb dtrace.Builder
	for i := 0; i < traces; i++ {
		tb.Start(srv.TraceArena().NextID(), int64(i))
		srv.TraceArena().Record(tb.Finish(int64(i + 1)))
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s.Capture(int64(i))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := bb.Flush(false); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if err := bb.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[dtrace.TraceID]int{}
	for _, r := range res.Records {
		if r.Kind != KindTraces {
			continue
		}
		trs, err := dtrace.ParseTraces(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trs {
			seen[tr.ID]++
		}
	}
	if len(seen) != traces {
		t.Fatalf("persisted %d distinct traces, want %d", len(seen), traces)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("trace %d persisted %d times", id, n)
		}
	}
	if c := Decode(res.Records); len(c.Traces) != traces || len(c.Metrics) != 40 || c.Skipped != 0 {
		t.Fatalf("Decode: %d traces, %d metrics records, %d skipped; want %d, 40, 0",
			len(c.Traces), len(c.Metrics), c.Skipped, traces)
	}
}
