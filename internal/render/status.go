package render

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/blackbox"
	"repro/internal/dtrace"
	"repro/internal/mserve"
	"repro/internal/telemetry/tsrec"
)

// Live is one round of a running daemon's surfaces: what `kml-ctl
// status` prints and `kml-ctl top` redraws.
type Live struct {
	Addr     string
	Time     time.Time
	Metrics  mserve.MetricsSnapshot
	Series   tsrec.Series
	Learn    mserve.LearnStatus
	Blackbox mserve.BlackboxStatus
}

// Status writes a header line, the Stats counters, the observed latency
// histograms, the flight recorder's decisions, the series picture, the
// drift monitors, the learner and the black box.
func Status(w io.Writer, l *Live) {
	fmt.Fprintf(w, "status %s %s\n", l.Addr, l.Time.UTC().Format("15:04:05 UTC"))
	Stats(w, l.Metrics.Stats())
	Histograms(w, l.Metrics)
	for _, d := range l.Metrics.Decisions {
		fmt.Fprintf(w, "decision t=%d class=%d rows=%d v%d\n", d.TimeNanos, d.Class, d.Rows, d.Version)
	}
	Series(w, l.Series)
	Drift(w, []mserve.MetricsSnapshot{l.Metrics})
	_ = Learn(w, []mserve.LearnStatus{l.Learn})
	Blackbox(w, l.Blackbox)
}

// Stats writes the daemon's counters, one aligned "name value" line each.
func Stats(w io.Writer, st mserve.Stats) {
	for _, f := range []struct {
		name string
		v    any
	}{
		{"active_version", st.ActiveVersion},
		{"deploys", st.Deploys},
		{"rollbacks", st.Rollbacks},
		{"inferences", st.Inferences},
		{"rows", st.Rows},
		{"errors", st.Errors},
		{"conns", fmt.Sprintf("%d/%d", st.Conns, st.MaxConns)},
		{"conn_rejects", st.ConnRejects},
		{"arena_rejects", st.ArenaRejects},
		{"collected", st.Collected},
		{"processed", st.Processed},
		{"dropped", st.Dropped},
		{"buffer", fmt.Sprintf("%d/%d", st.BufferLen, st.BufferCap)},
		{"arena_live_bytes", st.ArenaLive},
		{"arena_peak_bytes", st.ArenaPeak},
		{"coalesce_window_ns", st.CoalesceWindowNS},
		{"coalesce_max", st.CoalesceMaxRows},
		{"coalesce_batches", st.CoalesceBatches},
		{"coalesce_rows", st.CoalesceRows},
		{"coalesce_mean_batch", fmt.Sprintf("%.2f", st.CoalesceMeanBatch())},
	} {
		fmt.Fprintf(w, "%-19s %v\n", f.name, f.v)
	}
}

// Histograms writes one quantile line per histogram that observed
// anything.
func Histograms(w io.Writer, snap mserve.MetricsSnapshot) {
	for _, m := range snap.Metrics {
		if m.Kind == mserve.MetricHistogram && m.Hist.Count > 0 {
			fmt.Fprintf(w, "%s count=%d p50=%dns p95=%dns p99=%dns\n", m.Name, m.Hist.Count,
				m.Hist.Quantile(0.50), m.Hist.Quantile(0.95), m.Hist.Quantile(0.99))
		}
	}
}

// Series writes the throughput and latency picture of a captured
// series: rows/s of the newest point from the counter deltas (delta ×
// 1e9 / interval), the newest infer and queue-delay quantiles, p99
// sparklines over the window, and the point count.
func Series(w io.Writer, ts tsrec.Series) {
	n := len(ts.Points)
	if n == 0 {
		fmt.Fprintln(w, "series  no time series yet (no time-series points recovered)")
		return
	}
	if c := Column(ts.Counters, "mserve_rows"); c >= 0 && ts.IntervalNanos > 0 {
		rates := make([]uint64, n)
		for i := range ts.Points {
			rates[i] = ts.Points[i].Deltas[c] * 1_000_000_000 / uint64(ts.IntervalNanos)
		}
		fmt.Fprintf(w, "throughput %8d rows/s  %s\n", rates[n-1], Spark(rates))
	}
	last := &ts.Points[n-1]
	for _, h := range [...]struct{ col, label string }{
		{"mserve_infer_ns", "infer"},
		{"mserve_queue_delay_ns", "queue"},
	} {
		c := Column(ts.Hists, h.col)
		if c < 0 {
			continue
		}
		p99s := make([]uint64, n)
		for i := range ts.Points {
			p99s[i] = uint64(ts.Points[i].P99[c])
		}
		fmt.Fprintf(w, "%-7s p50 %8s  p95 %8s  p99 %8s  %s\n",
			h.label, NS(last.P50[c]), NS(last.P95[c]), NS(last.P99[c]), Spark(p99s))
	}
	fmt.Fprintf(w, "series  %d points @ %s\n", n, time.Duration(ts.IntervalNanos))
}

// Drift writes one line per drift monitor (the mserve_drift_* gauges of
// the serving path, readahead_drift_* of a -sim tuner) from the newest
// snapshot that has it: the verdict, the max feature shift in milli-z,
// prediction churn, completed windows and decisions, then a sparkline of
// the shift across snaps (one snapshot live, every metrics record in a
// postmortem).
func Drift(w io.Writer, snaps []mserve.MetricsSnapshot) {
	for _, prefix := range [...]string{"mserve_drift", "readahead_drift"} {
		var shifts []uint64
		var g map[string]int64
		for _, snap := range snaps {
			if s := gauges(snap, prefix+"_"); s != nil {
				shifts = append(shifts, uint64(max(s["max_shift_mz"], 0)))
				g = s
			}
		}
		if g == nil {
			continue
		}
		state := "ok"
		if g["drifted"] != 0 {
			state = "DRIFTED"
		}
		fmt.Fprintf(w, "drift %-15s %-7s shift=%+dmz churn=%dpm windows=%d decisions=%d %s\n",
			prefix, state, g["max_shift_mz"], g["churn_pm"], g["windows"], g["decisions"], Spark(shifts))
	}
}

// gauges maps snap's counter and gauge values named prefix+suffix by
// suffix, nil when there is no windows gauge (no such monitor).
func gauges(snap mserve.MetricsSnapshot, prefix string) map[string]int64 {
	g := map[string]int64{}
	for _, m := range snap.Metrics {
		if suffix, ok := strings.CutPrefix(m.Name, prefix); ok && m.Kind != mserve.MetricHistogram {
			g[suffix] = m.Value
		}
	}
	if _, ok := g["windows"]; !ok {
		return nil
	}
	return g
}

// Learn writes the online-learning controller: one status line per
// snapshot in sts (one live, every recorded transition in a postmortem),
// the retrain history of the newest, and the history's length. Shifts
// are milli-z and rates per-mille, like the wire.
func Learn(w io.Writer, sts []mserve.LearnStatus) error {
	if len(sts) == 0 {
		return nil
	}
	for _, st := range sts {
		fmt.Fprintf(w, "learn state=%s retrains=%d deploys=%d commits=%d rollbacks=%d fires=%d examples=%d v%d baseline=%dpm canary=%dpm\n",
			mserve.LearnStateName(st.State), st.Retrains, st.Deploys, st.Commits, st.Rollbacks,
			st.TriggerFires, st.Examples, st.LastVersion, st.BaselinePM, st.CanaryPM)
	}
	events := sts[len(sts)-1].Events
	for _, e := range events {
		fmt.Fprintf(w, "retrain v%d %s %s examples=%d train=%s baseline=%dpm canary=%dpm shift=%+dmz churn=%dpm\n",
			e.Version, clock(int64(e.TimeNanos)), mserve.RetrainOutcomeName(e.Outcome), e.Examples,
			time.Duration(e.DurationNanos).Round(time.Millisecond),
			e.BaselinePM, e.CanaryPM, e.MaxShiftMZ, e.ChurnPM)
	}
	_, err := fmt.Fprintf(w, "%d retrain events\n", len(events))
	return err
}

// Blackbox writes the flight recorder's line; a daemon without one
// reports the disabled zero value and gets none.
func Blackbox(w io.Writer, st mserve.BlackboxStatus) {
	if st.Enabled {
		fmt.Fprintf(w, "blackbox %s ring=%d records=%d dropped=%d flushes=%d torn_at_open=%d last_flush=%s\n",
			st.Path, st.RingBytes, st.Records, st.Dropped, st.Flushes, st.TornAtOpen, clock(st.LastFlushNanos))
	}
}

// Traces writes every trace as a span tree, then the retained count: the
// /traces debug page.
func Traces(w io.Writer, traces []dtrace.Trace) error {
	for i := range traces {
		Trace(w, &traces[i])
	}
	_, err := fmt.Fprintf(w, "%d traces retained\n", len(traces))
	return err
}

// TraceReport writes the shown traces as span trees, the per-stage
// latency breakdown over them, and how many were shown, complete, and
// retained: what `kml-ctl trace` prints.
func TraceReport(w io.Writer, shown []dtrace.Trace, retained int) {
	complete := 0
	byStage := map[dtrace.Stage][]int64{}
	for i := range shown {
		Trace(w, &shown[i])
		if shown[i].Complete() {
			complete++
		}
		for _, sp := range shown[i].Used() {
			byStage[sp.Stage] = append(byStage[sp.Stage], sp.Duration())
		}
	}
	if len(byStage) > 0 {
		fmt.Fprintln(w, "stage breakdown:")
	}
	for st := dtrace.Stage(0); st < dtrace.NumStages; st++ {
		ds := byStage[st]
		if len(ds) == 0 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var sum int64
		for _, d := range ds {
			sum += d
		}
		fmt.Fprintf(w, "  %-10s n=%-5d p50=%-10s max=%-10s total=%s\n",
			st, len(ds), Dur(ds[len(ds)/2]), Dur(ds[len(ds)-1]), Dur(sum))
	}
	fmt.Fprintf(w, "%d traces shown, %d complete (%d retained by server)\n", len(shown), complete, retained)
}

// Probe writes each client-side probe trace with the server's tree for
// the same TraceID nested under its wire span, and returns how many
// joined: what `kml-ctl probe` prints.
func Probe(w io.Writer, client, server []dtrace.Trace, version uint64) int {
	byID := make(map[dtrace.TraceID]*dtrace.Trace, len(server))
	for i := range server {
		byID[server[i].ID] = &server[i]
	}
	joined := 0
	for i := range client {
		ctr := &client[i]
		root, srv := ctr.Root(), byID[ctr.ID]
		tag := "client only (server did not retain the trace)"
		if srv != nil {
			tag = "joined client↔server, identical TraceID"
			joined++
		}
		fmt.Fprintf(w, "trace %d  %s  %s  v%d  %s\n",
			ctr.ID, time.Unix(0, root.Start).Format("15:04:05.000000"), Dur(root.Duration()), version, tag)
		spans := ctr.Used()
		for si := 1; si < len(spans); si++ {
			fmt.Fprintf(w, "  %s %-10s %8s  %s\n", connector(si, spans), spans[si].Stage, Dur(spans[si].Duration()), SpanDetail(spans[si]))
			if spans[si].Stage != dtrace.StageWire || srv == nil {
				continue
			}
			fmt.Fprintf(w, "  │   └─ %-10s %8s  server  %s\n", "server", Dur(srv.Root().Duration()), SpanDetail(*srv.Root()))
			ss := srv.Used()
			for j := 1; j < len(ss); j++ {
				fmt.Fprintf(w, "  │      %s %-10s %8s  %s\n", connector(j, ss), ss[j].Stage, Dur(ss[j].Duration()), SpanDetail(ss[j]))
			}
		}
	}
	fmt.Fprintf(w, "%d probes sent, %d joined across the wire\n", len(client), joined)
	return joined
}

func connector(i int, spans []dtrace.Span) string {
	if i == len(spans)-1 {
		return "└─"
	}
	return "├─"
}

// Postmortem writes the forensic report of a recovered black box, recs
// being the window to report (all of scan.Records, or its tail): the scan
// summary, the series picture at death, the Stats counters and latency
// histograms of the newest metrics record, the drift trajectory over
// every metrics record, the learner's recorded transitions, and the
// slowest and the last n decision traces.
func Postmortem(w io.Writer, path string, scan blackbox.ScanResult, recs []blackbox.Record, n int) {
	c := blackbox.Decode(recs)
	kinds := map[blackbox.Kind]int{}
	for _, r := range recs {
		kinds[r.Kind]++
	}
	fmt.Fprintf(w, "black box %s  ring %d bytes  created %s\n",
		path, scan.RingBytes, time.Unix(0, scan.CreatedNanos).UTC().Format("2006-01-02 15:04:05"))
	fmt.Fprintf(w, "records   %d intact (%d metrics, %d timeseries, %d traces, %d learn), %d torn, %d unparsable\n",
		len(recs), kinds[blackbox.KindMetrics], kinds[blackbox.KindTimeSeries],
		kinds[blackbox.KindTraces], kinds[blackbox.KindLearn], scan.Torn, c.Skipped)
	if len(recs) > 0 {
		lo, hi := recs[0].TimeNanos, recs[0].TimeNanos
		for _, r := range recs {
			lo, hi = min(lo, r.TimeNanos), max(hi, r.TimeNanos)
		}
		fmt.Fprintf(w, "timeline  %s … %s  (%s)\n", clock(lo), clock(hi), time.Duration(hi-lo).Round(time.Millisecond))
	}
	fmt.Fprintln(w)
	Series(w, c.Series)
	if len(c.Metrics) > 0 {
		newest := c.Metrics[len(c.Metrics)-1]
		Stats(w, newest.Stats())
		Histograms(w, newest)
	}
	Drift(w, c.Metrics)
	_ = Learn(w, c.Learn)
	fmt.Fprintln(w)
	if len(c.Traces) == 0 {
		fmt.Fprintln(w, "traces    none recovered")
		return
	}
	n = min(max(n, 1), len(c.Traces))
	slowest := append([]dtrace.Trace(nil), c.Traces...)
	sort.SliceStable(slowest, func(i, j int) bool {
		return slowest[i].Root().Duration() > slowest[j].Root().Duration()
	})
	fmt.Fprintf(w, "slowest decisions (%d of %d recovered):\n", n, len(c.Traces))
	for i := range slowest[:n] {
		Trace(w, &slowest[i])
	}
	fmt.Fprintln(w, "last decisions before death:")
	last := c.Traces[len(c.Traces)-n:]
	for i := range last {
		Trace(w, &last[i])
	}
	fmt.Fprintf(w, "%d traces recovered\n", len(c.Traces))
}

// clock renders a wall-clock nanosecond stamp as UTC time of day.
func clock(ns int64) string { return time.Unix(0, ns).UTC().Format("15:04:05.000") }
