package features

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func rec(off int64) Record { return Record{Inode: 1, Offset: off, Time: time.Second} }

func TestExtractorSequentialPattern(t *testing.T) {
	e := NewExtractor()
	for i := int64(0); i < 100; i++ {
		e.Add(rec(i))
	}
	v := e.Emit(256)
	if v[FeatEventCount] != 100 {
		t.Errorf("count = %g", v[FeatEventCount])
	}
	if math.Abs(v[FeatOffsetMean]-49.5) > 1e-9 {
		t.Errorf("mean = %g", v[FeatOffsetMean])
	}
	if math.Abs(v[FeatMeanAbsDelta]-1) > 1e-9 {
		t.Errorf("abs delta = %g, want 1 (forward scan)", v[FeatMeanAbsDelta])
	}
	if math.Abs(v[FeatDeltaSign]-1) > 1e-9 {
		t.Errorf("delta sign = %g, want +1 (forward scan)", v[FeatDeltaSign])
	}
	if v[FeatReadahead] != 256 {
		t.Errorf("ra = %g", v[FeatReadahead])
	}
}

func TestExtractorReversePattern(t *testing.T) {
	e := NewExtractor()
	for i := int64(99); i >= 0; i-- {
		e.Add(rec(i))
	}
	v := e.Emit(8)
	if math.Abs(v[FeatMeanAbsDelta]-1) > 1e-9 {
		t.Errorf("abs delta = %g, want 1 (reverse scan)", v[FeatMeanAbsDelta])
	}
	if math.Abs(v[FeatDeltaSign]+1) > 1e-9 {
		t.Errorf("delta sign = %g, want -1 (reverse scan)", v[FeatDeltaSign])
	}
}

func TestExtractorRandomPattern(t *testing.T) {
	e := NewExtractor()
	offs := []int64{500, 10, 900, 300, 700, 50}
	for _, o := range offs {
		e.Add(rec(o))
	}
	v := e.Emit(256)
	if v[FeatOffsetStdDev] < 100 {
		t.Errorf("stddev = %g; random offsets should scatter", v[FeatOffsetStdDev])
	}
	if v[FeatMeanAbsDelta] < 100 {
		t.Errorf("abs delta = %g; random jumps should be large", v[FeatMeanAbsDelta])
	}
	// Delta signs nearly cancel for random access.
	if math.Abs(v[FeatDeltaSign]) > 0.5 {
		t.Errorf("delta sign = %g; random signs should roughly cancel", v[FeatDeltaSign])
	}
}

func TestExtractorEmitResets(t *testing.T) {
	e := NewExtractor()
	e.Add(rec(1))
	e.Add(rec(2))
	e.Emit(8)
	v := e.Emit(8)
	if v[FeatEventCount] != 0 || v[FeatOffsetMean] != 0 || v[FeatMeanAbsDelta] != 0 {
		t.Errorf("window not reset: %v", v)
	}
}

func TestExtractorEmptyWindow(t *testing.T) {
	e := NewExtractor()
	v := e.Emit(128)
	if v[FeatEventCount] != 0 || v[FeatReadahead] != 128 {
		t.Errorf("empty window: %v", v)
	}
}

func TestExtractorSingleEventNoDelta(t *testing.T) {
	e := NewExtractor()
	e.Add(rec(42))
	v := e.Emit(8)
	if v[FeatMeanAbsDelta] != 0 || v[FeatDeltaSign] != 0 {
		t.Error("single event has no delta")
	}
	if v[FeatOffsetStdDev] != 0 {
		t.Error("single event has no deviation")
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	raw := []Vector{
		{100, 50, 10, 1, 1, 0, 256},
		{200, 60, 20, 1, -1, 0.5, 256},
		{300, 70, 30, 500, 0, 1, 8},
	}
	n := FitNormalizer(raw)
	// Mean of normalized features must be ~0, stddev ~1.
	var sums [NumCandidates]float64
	for _, nv := range n.ApplyAll(raw) {
		for i, x := range nv {
			sums[i] += x
		}
	}
	for i, s := range sums {
		if math.Abs(s) > 1e-9 {
			t.Errorf("feature %d mean %g", i, s/3)
		}
	}
}

func TestNormalizerApplyInto(t *testing.T) {
	n := FitNormalizer([]Vector{{1, 2, 3, 4, 5, 6, 7}, {3, 4, 5, 6, 7, 8, 9}})
	dst := make([]float64, Count)
	n.ApplyInto(dst, Vector{2, 3, 4, 5, 6, 7, 8})
	for i, x := range dst {
		if x != 0 {
			t.Errorf("midpoint feature %d = %g, want 0", i, x)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		n.ApplyInto(dst, Vector{1, 2, 3, 4, 5, 6, 7})
	})
	if allocs != 0 {
		t.Errorf("ApplyInto allocates %.1f", allocs)
	}
}

func TestNormalizerConstantFeature(t *testing.T) {
	n := FitNormalizer([]Vector{{5, 0, 0, 0, 0, 0, 256}, {5, 1, 0, 0, 0, 0, 256}})
	out := n.Apply(Vector{5, 0.5, 0, 0, 0, 0, 999})
	if out[FeatEventCount] != 0 || out[FeatReadahead] != 0 {
		t.Error("constant feature must normalize to 0")
	}
}

func TestNormalizerSaveLoad(t *testing.T) {
	n := FitNormalizer([]Vector{{1, 2, 3, 4, 5, 6, 7}, {10, 20, 30, 40, 50, 60, 70}})
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadNormalizer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Errorf("round trip mismatch: %+v vs %+v", got, n)
	}
	if _, err := LoadNormalizer(bytes.NewReader([]byte("xx"))); err == nil {
		t.Error("short input must error")
	}
	bad := buf // drained; write garbage
	bad.Write(make([]byte, 4+Count*16))
	if _, err := LoadNormalizer(&bad); err == nil {
		t.Error("bad magic must error")
	}
}

func TestCorrelationReport(t *testing.T) {
	// Feature 0 perfectly tracks the label; feature 1 is anti-correlated;
	// the rest are constant (degenerate → 0).
	raw := []Vector{
		{0, 10, 1, 1, 1, 1, 1},
		{1, 8, 1, 1, 1, 1, 1},
		{2, 6, 1, 1, 1, 1, 1},
		{3, 4, 1, 1, 1, 1, 1},
	}
	labels := []int{0, 1, 2, 3}
	corr, err := CorrelationReport(raw, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(corr[0]-1) > 1e-9 {
		t.Errorf("corr[0] = %g", corr[0])
	}
	if math.Abs(corr[1]+1) > 1e-9 {
		t.Errorf("corr[1] = %g", corr[1])
	}
	if corr[2] != 0 {
		t.Errorf("corr[2] = %g", corr[2])
	}
	if _, err := CorrelationReport(nil, nil); err == nil {
		t.Error("empty report must error")
	}
	if _, err := CorrelationReport(raw, []int{1}); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestNames(t *testing.T) {
	n := Names()
	if n[FeatEventCount] != "tracepoint_count" || n[FeatReadahead] != "current_readahead" {
		t.Error("feature names")
	}
}

func BenchmarkExtractorAdd(b *testing.B) {
	e := NewExtractor()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Add(Record{Inode: 1, Offset: int64(i % 10000), Time: time.Duration(i)})
	}
}
