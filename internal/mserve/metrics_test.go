package mserve

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/memutil"
	"repro/internal/telemetry"
)

func sampleSnapshot() MetricsSnapshot {
	var h telemetry.Histogram
	for _, ns := range []int64{0, 1, 100, 100, 20_000, 1 << 40} {
		h.Observe(ns)
	}
	return MetricsSnapshot{
		Metrics: []Metric{
			{Name: "mserve_infer_ns", Kind: MetricHistogram, Hist: h.Snapshot()},
			{Name: "mserve_inferences", Kind: MetricCounter, Value: 42},
			{Name: "mserve_conns", Kind: MetricGauge, Value: -3},
		},
		Decisions: []MetricsDecision{
			{TimeNanos: 1_000_000, Version: 1, Class: 2, Rows: 1, Sectors: 8},
			{TimeNanos: 2_000_000, Version: 2, Class: -1, Rows: 50, Sectors: 0},
		},
	}
}

func TestMetricsRoundTrip(t *testing.T) {
	in := sampleSnapshot()
	wire := AppendMetrics(nil, in)
	out, err := ParseMetrics(wire)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(out.Metrics) != len(in.Metrics) || len(out.Decisions) != len(in.Decisions) {
		t.Fatalf("shape %d/%d metrics, %d/%d decisions",
			len(out.Metrics), len(in.Metrics), len(out.Decisions), len(in.Decisions))
	}
	for i, m := range out.Metrics {
		if m.Name != in.Metrics[i].Name || m.Kind != in.Metrics[i].Kind || m.Value != in.Metrics[i].Value {
			t.Errorf("metric %d: %+v != %+v", i, m, in.Metrics[i])
		}
	}
	h := out.Metrics[0].Hist
	if h.Count != 6 || h.Sum != in.Metrics[0].Hist.Sum {
		t.Errorf("histogram count=%d sum=%d", h.Count, h.Sum)
	}
	if h.Buckets != in.Metrics[0].Hist.Buckets {
		t.Error("histogram buckets differ after round trip")
	}
	for i, d := range out.Decisions {
		if d != in.Decisions[i] {
			t.Errorf("decision %d: %+v != %+v", i, d, in.Decisions[i])
		}
	}
	// Canonical: re-encoding the parsed snapshot reproduces the bytes.
	if !bytes.Equal(AppendMetrics(nil, out), wire) {
		t.Error("re-encode mismatch")
	}
}

func TestMetricsEmpty(t *testing.T) {
	wire := AppendMetrics(nil, MetricsSnapshot{})
	out, err := ParseMetrics(wire)
	if err != nil || len(out.Metrics) != 0 || len(out.Decisions) != 0 {
		t.Fatalf("empty round trip: %+v err=%v", out, err)
	}
}

func TestParseMetricsRejects(t *testing.T) {
	good := AppendMetrics(nil, sampleSnapshot())
	cases := map[string][]byte{
		"empty":            {},
		"short header":     {1},
		"truncated":        good[:len(good)-1],
		"trailing":         append(append([]byte{}, good...), 0),
		"metric overcount": {0xFF, 0xFF},
		"zero name":        {1, 0, MetricCounter, 0},
	}
	// Out-of-order histogram buckets: build by hand — kind 2, name "h",
	// sum 0, two buckets with indexes 5 then 5 (not increasing).
	bad := []byte{1, 0, MetricHistogram, 1, 'h'}
	bad = append(bad, make([]byte, 8)...) // sum
	bad = append(bad, 2)                  // nbuckets
	bad = append(bad, 5, 1, 0, 0, 0, 0, 0, 0, 0)
	bad = append(bad, 5, 1, 0, 0, 0, 0, 0, 0, 0)
	bad = append(bad, 0, 0) // ndecisions
	cases["unordered buckets"] = bad
	// Zero-count bucket.
	zc := []byte{1, 0, MetricHistogram, 1, 'h'}
	zc = append(zc, make([]byte, 8)...)
	zc = append(zc, 1)
	zc = append(zc, 3, 0, 0, 0, 0, 0, 0, 0, 0)
	zc = append(zc, 0, 0)
	cases["zero-count bucket"] = zc
	for name, p := range cases {
		if _, err := ParseMetrics(p); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: err = %v, want ErrBadMessage", name, err)
		}
	}
}

// TestServerMetricsEndToEnd drives traffic through a live server and
// checks the MsgMetrics surface: request-latency histograms populate,
// gauges track the stats counters, and the flight recorder retains the
// served decisions with the deployed model version.
func TestServerMetricsEndToEnd(t *testing.T) {
	s, sock := startServer(t, Config{})
	cl := dial(t, sock)

	if _, err := s.Deploy(KindNN, "readahead-nn", nnModelBytes(t, 7, 4)); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	const singles = 5
	for i := 0; i < singles; i++ {
		if _, _, err := cl.Infer([]float64{0.1, 0.2, 0.3, 0.4}); err != nil {
			t.Fatalf("infer: %v", err)
		}
	}
	flat := make([]float64, 8*4)
	if _, _, err := cl.BatchInfer(flat, 8, 4); err != nil {
		t.Fatalf("batch: %v", err)
	}

	// The flight recorder fills on the asynchronous collection thread.
	deadline := time.Now().Add(2 * time.Second)
	var snap MetricsSnapshot
	for {
		var err error
		snap, err = cl.Metrics()
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		if len(snap.Decisions) >= singles+1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	byName := map[string]Metric{}
	for _, m := range snap.Metrics {
		byName[m.Name] = m
	}
	if h := byName["mserve_infer_ns"]; h.Kind != MetricHistogram || h.Hist.Count != singles {
		t.Errorf("mserve_infer_ns: kind=%d count=%d, want histogram count %d", h.Kind, h.Hist.Count, singles)
	}
	if h := byName["mserve_batch_infer_ns"]; h.Hist.Count != 1 {
		t.Errorf("mserve_batch_infer_ns count %d, want 1", h.Hist.Count)
	}
	if _, ok := byName["mserve_deploy_ns"]; ok {
		t.Error("mserve_deploy_ns present: deploy is not a wire message")
	}
	if g := byName["mserve_active_version"]; g.Kind != MetricGauge || g.Value != 1 {
		t.Errorf("mserve_active_version = %+v", g)
	}
	if g := byName["mserve_inferences"]; g.Value != singles+1 {
		t.Errorf("mserve_inferences = %d, want %d", g.Value, singles+1)
	}
	if g := byName["mserve_rows"]; g.Value != singles+8 {
		t.Errorf("mserve_rows = %d, want %d", g.Value, singles+8)
	}
	if _, ok := byName["mserve_pipeline_iter_ns"]; !ok {
		t.Error("pipeline iteration histogram missing")
	}
	if _, ok := byName["mserve_pipeline_collected"]; !ok {
		t.Error("pipeline gauges missing")
	}

	if len(snap.Decisions) < singles+1 {
		t.Fatalf("flight recorder retained %d decisions, want ≥ %d", len(snap.Decisions), singles+1)
	}
	var single, batch int
	for _, d := range snap.Decisions {
		if d.Version != 1 {
			t.Errorf("decision version %d, want 1", d.Version)
		}
		switch {
		case d.Class >= 0 && d.Rows == 1:
			single++
		case d.Class == -1 && d.Rows == 8:
			batch++
		default:
			t.Errorf("unexpected decision %+v", d)
		}
	}
	if single != singles || batch != 1 {
		t.Errorf("decisions: %d single + %d batch, want %d + 1", single, batch, singles)
	}

	// The server's Stats view and the metrics gauges must agree.
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if uint64(byName["mserve_rows"].Value) != st.Rows {
		t.Errorf("rows gauge %d != stats %d", byName["mserve_rows"].Value, st.Rows)
	}
	if s.MetricsRegistry() == nil {
		t.Error("nil metrics registry")
	}
}

// TestStatsView reads the Stats view both ways on a server with every
// optional field live (an arena, coalescing, one deploy): each name in
// the view's table must be registered, so no field reads 0 from a
// misspelt name, and on a quiesced server the in-process view and the
// one a client reads over the wire must agree.
func TestStatsView(t *testing.T) {
	s, sock := coalescedServer(t, Config{
		Arena:          memutil.NewArena("stats-view"),
		CoalesceWindow: 150 * time.Microsecond,
		CoalesceMax:    48,
	})
	cl := dial(t, sock)
	if _, _, err := cl.BatchInfer(make([]float64, 4*4), 4, 4); err != nil {
		t.Fatalf("batch infer: %v", err)
	}
	registered := map[string]bool{}
	for _, m := range s.Metrics().Metrics {
		registered[m.Name] = true
	}
	for name := range statsFields(&Stats{}) {
		if !registered[name] {
			t.Errorf("Stats reads %s, which the server does not register", name)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	st := s.Stats()
	for st.Processed != st.Collected && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = s.Stats()
	}
	want := Stats{
		ActiveVersion: 1, Deploys: 1, Inferences: 1, Rows: 4,
		Conns: 1, MaxConns: 64, Collected: 1, Processed: 1, BufferCap: st.BufferCap,
		ArenaLive: st.ArenaLive, ArenaPeak: st.ArenaPeak,
		CoalesceWindowNS: 150_000, CoalesceMaxRows: 48, CoalesceBatches: 1, CoalesceRows: 4,
	}
	if st != want || st.BufferCap == 0 || st.ArenaLive == 0 || st.ArenaPeak < st.ArenaLive {
		t.Fatalf("Server.Stats() = %+v, want %+v", st, want)
	}
	remote, err := cl.Stats()
	if err != nil {
		t.Fatalf("client stats: %v", err)
	}
	if remote != st {
		t.Fatalf("Client.Stats() = %+v, Server.Stats() = %+v", remote, st)
	}
}
