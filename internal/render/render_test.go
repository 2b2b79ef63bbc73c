package render

import (
	"strings"
	"testing"

	"repro/internal/dtrace"
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
