package render

import (
	"strings"
	"testing"

	"repro/internal/dtrace"
	"repro/internal/telemetry/tsrec"
)

func TestTraceTree(t *testing.T) {
	var b dtrace.Builder
	b.Start(7, 100)
	b.SetValue(0, 2)
	p := b.Begin(dtrace.StageParse, 0, 110)
	b.SetValue(p, 34)
	b.End(p, 120)
	i := b.Begin(dtrace.StageInfer, p, 120)
	b.SetValue(i, 2)
	b.SetAux(i, 3)
	b.End(i, 150)
	q := b.Begin(dtrace.StageQueue, 0, 150)
	b.SetValue(q, 40)
	b.End(q, 160)
	var sb strings.Builder
	Trace(&sb, b.Finish(200))
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	want := []string{
		"trace 7 ", // then the local-time stamp
		"  ├─ parse ",
		"     └─ infer ",
		"  └─ queue ",
	}
	details := []string{"100ns  class=2", "10ns  bytes=34", "30ns  class=2 v3", "10ns  delay=40ns"}
	if len(lines) != len(want) {
		t.Fatalf("rendered %d lines, want %d:\n%s", len(lines), len(want), sb.String())
	}
	for k, line := range lines {
		if !strings.HasPrefix(line, want[k]) || !strings.HasSuffix(line, details[k]) {
			t.Errorf("line %d = %q, want prefix %q and suffix %q", k, line, want[k], details[k])
		}
	}
}

// TestInferSpanDetail: a serving infer span's Aux packs the forward
// pass's row count over the model version (dtrace.PackInferAux); a tuner
// span's bare version unpacks to zero rows and renders as before.
func TestInferSpanDetail(t *testing.T) {
	for _, tc := range []struct {
		value, aux int64
		want       string
	}{
		{2, 3, "class=2 v3"}, // tuner: bare version
		{2, dtrace.PackInferAux(1, 5), "class=2 v1 batch=5"},
		{-1, dtrace.PackInferAux(4, 256), "v4 batch=256"},
	} {
		sp := dtrace.Span{Stage: dtrace.StageInfer, Value: tc.value, Aux: tc.aux}
		if got := SpanDetail(sp); got != tc.want {
			t.Errorf("SpanDetail(value=%d aux=%#x) = %q, want %q", tc.value, tc.aux, got, tc.want)
		}
	}
}

func TestSeriesText(t *testing.T) {
	ts := tsrec.Series{IntervalNanos: 50, Counters: []string{"a", "b"}, Hists: []string{"h"}}
	ts.Points = make([]tsrec.Point, 2)
	for i := range ts.Points {
		p := &ts.Points[i]
		p.TimeNanos = int64(100 * (i + 1))
		p.Deltas[0], p.Deltas[1] = uint64(i), 7
		p.Counts[0], p.P50[0], p.P95[0], p.P99[0] = 3, 10, 20, int64(30+i)
	}
	var sb strings.Builder
	if err := SeriesText(&sb, ts); err != nil {
		t.Fatal(err)
	}
	want := "interval_ns 50\ncounters a b\nhists h\n" +
		"point 100 0 7 3 10 20 30\npoint 200 1 7 3 10 20 31\n2 points\n"
	if sb.String() != want {
		t.Fatalf("SeriesText =\n%s\nwant\n%s", sb.String(), want)
	}
}

func TestSparkAndDurations(t *testing.T) {
	if got := Spark([]uint64{0, 7, 14}); got != "▁▄█" {
		t.Errorf("Spark = %q", got)
	}
	if got := Spark(make([]uint64, 40)); got != strings.Repeat("▁", 32) {
		t.Errorf("Spark keeps %d runes of 40 zeros, want the last 32", len([]rune(got)))
	}
	for ns, want := range map[int64]string{999: "999ns", 12_345: "12µs", 12_345_678: "12ms"} {
		if got := NS(ns); got != want {
			t.Errorf("NS(%d) = %q, want %q", ns, got, want)
		}
	}
	if Dur(-1) != "?" || Dur(1500) != "1.5µs" {
		t.Errorf("Dur(-1) = %q, Dur(1500) = %q", Dur(-1), Dur(1500))
	}
	if Column([]string{"a", "b"}, "b") != 1 || Column(nil, "b") != -1 {
		t.Error("Column lookup wrong")
	}
}
