package render

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dtrace"
	"repro/internal/mserve"
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

func TestStatsGolden(t *testing.T) {
	var sb strings.Builder
	Stats(&sb, mserve.Stats{
		ActiveVersion: 2, Deploys: 3, Rollbacks: 1, Inferences: 40, Rows: 90, Errors: 5,
		Conns: 1, MaxConns: 64, ConnRejects: 6, ArenaRejects: 7, Collected: 40, Processed: 39,
		Dropped: 1, BufferLen: 2, BufferCap: 4096, ArenaLive: 1024, ArenaPeak: 2048,
		CoalesceWindowNS: 100_000, CoalesceMaxRows: 64, CoalesceBatches: 4, CoalesceRows: 10,
	})
	golden(t, "Stats", sb.String(), `active_version      2
deploys             3
rollbacks           1
inferences          40
rows                90
errors              5
conns               1/64
conn_rejects        6
arena_rejects       7
collected           40
processed           39
dropped             1
buffer              2/4096
arena_live_bytes    1024
arena_peak_bytes    2048
coalesce_window_ns  100000
coalesce_max        64
coalesce_batches    4
coalesce_rows       10
coalesce_mean_batch 2.50
`)
}

func TestSeriesGolden(t *testing.T) {
	var sb strings.Builder
	Series(&sb, tsrec.Series{IntervalNanos: 1e9, Counters: []string{"mserve_rows"}})
	golden(t, "empty Series", sb.String(), "series  no time series yet (no time-series points recovered)\n")

	ts := tsrec.Series{
		IntervalNanos: 1e9,
		Counters:      []string{"mserve_inferences", "mserve_rows"},
		Hists:         []string{"mserve_infer_ns", "mserve_queue_delay_ns"},
		Points:        make([]tsrec.Point, 2),
	}
	ts.Points[0].Deltas[1], ts.Points[0].P99[0] = 10, 20_000
	last := &ts.Points[1]
	last.Deltas[1], last.P50[0], last.P95[0], last.P99[0] = 30, 5_000, 15_000, 40_000
	sb.Reset()
	Series(&sb, ts)
	golden(t, "Series", sb.String(), `throughput       30 rows/s  ▃█
infer   p50   5000ns  p95     15µs  p99     40µs  ▄█
queue   p50      0ns  p95      0ns  p99      0ns  ▁▁
series  2 points @ 1s
`)
}

// drift builds a snapshot holding one drift monitor's gauges plus a
// histogram under the same prefix, which the printer must skip.
func drift(prefix string, shift, churn, windows, decisions, drifted int64) mserve.MetricsSnapshot {
	var snap mserve.MetricsSnapshot
	for _, g := range []struct {
		suffix string
		v      int64
	}{{"max_shift_mz", shift}, {"churn_pm", churn}, {"windows", windows}, {"decisions", decisions}, {"drifted", drifted}} {
		snap.Metrics = append(snap.Metrics, mserve.Metric{Name: prefix + "_" + g.suffix, Kind: mserve.MetricGauge, Value: g.v})
	}
	snap.Metrics = append(snap.Metrics, mserve.Metric{Name: prefix + "_windows_ns", Kind: mserve.MetricHistogram})
	return snap
}

func TestDriftGolden(t *testing.T) {
	var sb strings.Builder
	Drift(&sb, []mserve.MetricsSnapshot{drift("mserve_drift", -250, 12, 3, 40, 0)})
	golden(t, "one snapshot", sb.String(),
		"drift mserve_drift    ok      shift=-250mz churn=12pm windows=3 decisions=40 ▁\n")

	sb.Reset()
	Drift(&sb, []mserve.MetricsSnapshot{
		drift("readahead_drift", 100, 0, 1, 3, 0),
		{}, // a capture from before the monitor registered
		drift("readahead_drift", 400, 10, 2, 6, 0),
		drift("readahead_drift", 800, 333, 3, 9, 1),
	})
	golden(t, "three snapshots", sb.String(),
		"drift readahead_drift DRIFTED shift=+800mz churn=333pm windows=3 decisions=9 ▁▄█\n")
}

func TestLearnGolden(t *testing.T) {
	var sb strings.Builder
	if err := Learn(&sb, []mserve.LearnStatus{{BaselinePM: -1, CanaryPM: -1}}); err != nil {
		t.Fatal(err)
	}
	golden(t, "idle", sb.String(), `learn state=idle retrains=0 deploys=0 commits=0 rollbacks=0 fires=0 examples=0 v0 baseline=-1pm canary=-1pm
0 retrain events
`)

	at := uint64(3_723_004 * time.Millisecond) // 01:02:03.004 UTC
	sb.Reset()
	if err := Learn(&sb, []mserve.LearnStatus{
		{State: mserve.LearnRetraining, Retrains: 1, TriggerFires: 1, Examples: 64, LastVersion: 1, BaselinePM: 800, CanaryPM: -1},
		{
			State: mserve.LearnCollecting, Retrains: 2, Deploys: 2, Commits: 1, Rollbacks: 1,
			TriggerFires: 2, Examples: 12, LastVersion: 3, BaselinePM: 790, CanaryPM: 410,
			Events: []mserve.RetrainEvent{
				{TimeNanos: at, Version: 2, DurationNanos: 1_234_567_890, Examples: 64,
					Outcome: mserve.RetrainCommitted, BaselinePM: 800, CanaryPM: 810, MaxShiftMZ: 1500, ChurnPM: 40},
				{TimeNanos: at + 1e9, Version: 3, DurationNanos: 9_000_000, Examples: 32,
					Outcome: mserve.RetrainRolledBack, BaselinePM: 790, CanaryPM: 410, MaxShiftMZ: -250, ChurnPM: 0},
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	golden(t, "two transitions, two events", sb.String(), `learn state=retraining retrains=1 deploys=0 commits=0 rollbacks=0 fires=1 examples=64 v1 baseline=800pm canary=-1pm
learn state=collecting retrains=2 deploys=2 commits=1 rollbacks=1 fires=2 examples=12 v3 baseline=790pm canary=410pm
retrain v2 01:02:03.004 committed examples=64 train=1.235s baseline=800pm canary=810pm shift=+1500mz churn=40pm
retrain v3 01:02:04.004 rolled-back examples=32 train=9ms baseline=790pm canary=410pm shift=-250mz churn=0pm
2 retrain events
`)
}

func TestBlackboxGolden(t *testing.T) {
	var sb strings.Builder
	Blackbox(&sb, mserve.BlackboxStatus{Path: "/var/kml.bb", Records: 7})
	golden(t, "disabled", sb.String(), "")

	Blackbox(&sb, mserve.BlackboxStatus{
		Enabled: true, Path: "/var/kml.bb", RingBytes: 4096, Records: 7, Dropped: 1,
		Flushes: 3, LastFlushNanos: 3_723_004 * int64(time.Millisecond),
	})
	golden(t, "enabled", sb.String(),
		"blackbox /var/kml.bb ring=4096 records=7 dropped=1 flushes=3 torn_at_open=0 last_flush=01:02:03.004\n")
}

func golden(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s printed\n%s\nwant\n%s", what, got, want)
	}
}

// serve starts an in-process server on a unix socket with the committed
// readahead model deployed, and returns it with a connected client.
func serve(t *testing.T, cfg mserve.Config) (*mserve.Server, *mserve.Client) {
	t.Helper()
	reg, err := mserve.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	s, err := mserve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "s.sock"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Shutdown(2 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	cl, err := mserve.Dial("unix", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	cl.SetTimeout(5 * time.Second)
	model, err := os.ReadFile("../../testdata/models/readahead.kml")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Deploy(mserve.KindNN, "readahead", model); err != nil {
		t.Fatal(err)
	}
	return s, cl
}

func infer(t *testing.T, cl *mserve.Client, n int) {
	t.Helper()
	_, _, inDim, err := cl.Health()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := cl.Infer(make([]float64, inDim)); err != nil {
			t.Fatal(err)
		}
	}
}

func contains(t *testing.T, page string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(page, want) {
			t.Fatalf("page lacks %q:\n%s", want, page)
		}
	}
}

// TestDebugPages drives the /traces and /learn pages kml-served mounts on
// its debug listener: after served traffic Traces shows the retained
// request traces (queue span included), and Learn renders the idle zero
// status without a controller and the live counters with one.
func TestDebugPages(t *testing.T) {
	s, cl := serve(t, mserve.Config{TraceCapacity: 8})
	var sb strings.Builder
	if err := Traces(&sb, s.Traces()); err != nil {
		t.Fatal(err)
	}
	contains(t, sb.String(), "0 traces retained")

	infer(t, cl, 3)
	sb.Reset()
	if err := Traces(&sb, s.Traces()); err != nil {
		t.Fatal(err)
	}
	contains(t, sb.String(), "3 traces retained", "queue", "infer", "encode", "trace ")

	sb.Reset()
	if err := Learn(&sb, []mserve.LearnStatus{s.LearnStatus()}); err != nil {
		t.Fatal(err)
	}
	contains(t, sb.String(), "learn state=idle", "0 retrain events")

	s.SetLearnSource(func() mserve.LearnStatus {
		return mserve.LearnStatus{
			State: mserve.LearnCanary, Retrains: 2, Deploys: 2, Commits: 1,
			BaselinePM: 700, CanaryPM: 650,
			Events: []mserve.RetrainEvent{{
				TimeNanos: 1, Version: 9, Examples: 128,
				Outcome: mserve.RetrainCommitted, BaselinePM: 600, CanaryPM: 700,
			}},
		}
	})
	sb.Reset()
	if err := Learn(&sb, []mserve.LearnStatus{s.LearnStatus()}); err != nil {
		t.Fatal(err)
	}
	contains(t, sb.String(), "state=canary", "retrains=2", "retrain v9", "committed", "1 retrain events")
}

// TestTimeSeriesPage drives the /timeseries page: header lines always
// present, one "point" line per captured tick with the full column set,
// and a trailing count.
func TestTimeSeriesPage(t *testing.T) {
	s, cl := serve(t, mserve.Config{})
	var sb strings.Builder
	if err := SeriesText(&sb, s.TimeSeries()); err != nil {
		t.Fatal(err)
	}
	contains(t, sb.String(), "interval_ns ", "counters mserve_rows", "hists ", "0 points")

	infer(t, cl, 1)
	s.TimeSeriesRecorder().Tick(123_000_000_000)
	ts := s.TimeSeries()
	sb.Reset()
	if err := SeriesText(&sb, ts); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	contains(t, page, "point 123000000000 ", "1 points")
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "point ") {
			if got, want := len(strings.Fields(line)), 2+len(ts.Counters)+4*len(ts.Hists); got != want {
				t.Fatalf("point line has %d fields, want %d: %q", got, want, line)
			}
		}
	}
}
