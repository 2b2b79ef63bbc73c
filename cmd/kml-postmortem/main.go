// Command kml-postmortem is the crash-forensics tool for the black-box
// flight recorder: it opens a recorder file (typically salvaged from a
// dead or killed kml-served), validates every record's CRCs, reassembles
// the timeline across ring wraps and a torn tail, and renders the
// forensic report an operator wants after a crash — final throughput and
// latency, coalescing behaviour, the drift trajectory, the learner's
// last transitions, and the slowest/last decision traces the server
// captured before it died.
//
// Typical use:
//
//	kml-postmortem kml.blackbox                   # full report from a file
//	kml-postmortem -last 30s kml.blackbox         # only the final 30 seconds
//	kml-postmortem -traces 3 kml.blackbox         # fewer trace trees
//	kml-postmortem -addr /run/kml.sock            # live server: sync + read its box
//	kml-postmortem -raw kml.blackbox > series.bin # merged series for kml-top -from
//
// Live mode asks the server to capture and fsync its box first
// (MsgBlackbox sync), then reads the file the server names — the same
// bytes a post-crash scan would see.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/blackbox"
	"repro/internal/dtrace"
	"repro/internal/mserve"
	"repro/internal/render"
	"repro/internal/telemetry/tsrec"
)

func main() {
	var (
		network = flag.String("network", "unix", "server network for live mode: unix or tcp")
		addr    = flag.String("addr", "", "live server address: sync its black box and read the file it names")
		last    = flag.Duration("last", 0, "only report records from the final window of this length (0 = all)")
		ntraces = flag.Int("traces", 5, "decision-trace trees to render per section (slowest, last)")
		raw     = flag.Bool("raw", false, "emit the merged time series in tsrec wire encoding on stdout (for kml-top -from) and exit")
	)
	flag.Parse()

	path := flag.Arg(0)
	if *addr != "" {
		cl, err := mserve.Dial(*network, *addr)
		if err != nil {
			fatal(err)
		}
		st, err := cl.Blackbox(true)
		cl.Close()
		if err != nil {
			fatal(err)
		}
		if !st.Enabled {
			fatal(fmt.Errorf("server at %s has no black box enabled", *addr))
		}
		path = st.Path
	}
	if path == "" {
		fatal(fmt.Errorf("usage: kml-postmortem [flags] <blackbox-file>  (or -addr for a live server)"))
	}

	res, err := blackbox.ScanFile(path)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	recs := res.Records
	if *last > 0 && len(recs) > 0 {
		var newest int64
		for i := range recs {
			if recs[i].TimeNanos > newest {
				newest = recs[i].TimeNanos
			}
		}
		cutoff := newest - int64(*last)
		kept := recs[:0]
		for i := range recs {
			if recs[i].TimeNanos >= cutoff {
				kept = append(kept, recs[i])
			}
		}
		recs = kept
	}

	if *raw {
		ts, skipped := blackbox.MergeTimeSeries(recs)
		if res.Torn > 0 || skipped > 0 {
			fmt.Fprintf(os.Stderr, "kml-postmortem: %d torn records, %d unparsable series records skipped\n",
				res.Torn, skipped)
		}
		if _, err := os.Stdout.Write(tsrec.AppendSeries(nil, ts)); err != nil {
			fatal(err)
		}
		return
	}

	printHeader(path, res, recs)
	printSeries(recs)
	metrics := lastMetrics(recs)
	printCoalesce(metrics)
	printDrift(recs, metrics)
	printLearn(recs)
	printTraces(recs, *ntraces)
}

// printHeader summarizes the scan: geometry, record census by kind, torn
// count, and the reconstructed timeline range.
func printHeader(path string, res blackbox.ScanResult, recs []blackbox.Record) {
	counts := map[blackbox.Kind]int{}
	var lo, hi int64
	for i := range recs {
		counts[recs[i].Kind]++
		t := recs[i].TimeNanos
		if lo == 0 || t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	fmt.Printf("black box %s  ring %d bytes  created %s\n",
		path, res.RingBytes, time.Unix(0, res.CreatedNanos).UTC().Format("2006-01-02 15:04:05"))
	fmt.Printf("records   %d intact (%d metrics, %d timeseries, %d traces, %d learn), %d torn\n",
		len(recs), counts[blackbox.KindMetrics], counts[blackbox.KindTimeSeries],
		counts[blackbox.KindTraces], counts[blackbox.KindLearn], res.Torn)
	if len(recs) > 0 {
		fmt.Printf("timeline  %s … %s  (%s)\n",
			time.Unix(0, lo).UTC().Format("15:04:05.000"),
			time.Unix(0, hi).UTC().Format("15:04:05.000"),
			time.Duration(hi-lo).Round(time.Millisecond))
	}
	fmt.Println()
}

// printSeries merges every time-series record and renders the final
// throughput and latency picture — rows/s from counter deltas, infer and
// queue-delay quantiles from the last captured point, p99 sparklines
// over the recovered window.
func printSeries(recs []blackbox.Record) {
	ts, skipped := blackbox.MergeTimeSeries(recs)
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "kml-postmortem: %d unparsable series records skipped\n", skipped)
	}
	if len(ts.Points) == 0 {
		fmt.Println("series    no time-series points recovered")
		fmt.Println()
		return
	}
	rowsCol := render.Column(ts.Counters, "mserve_rows")
	if rowsCol >= 0 && ts.IntervalNanos > 0 {
		rates := make([]uint64, len(ts.Points))
		for i := range ts.Points {
			rates[i] = ts.Points[i].Deltas[rowsCol] * 1_000_000_000 / uint64(ts.IntervalNanos)
		}
		fmt.Printf("throughput %8d rows/s at death  %s\n", rates[len(rates)-1], render.Spark(rates))
	}
	for _, h := range []struct{ col, label string }{
		{"mserve_infer_ns", "infer"},
		{"mserve_queue_delay_ns", "queue"},
	} {
		hc := render.Column(ts.Hists, h.col)
		if hc < 0 {
			continue
		}
		lastPt := &ts.Points[len(ts.Points)-1]
		p99s := make([]uint64, len(ts.Points))
		for i := range ts.Points {
			p99s[i] = uint64(ts.Points[i].P99[hc])
		}
		fmt.Printf("%-7s p50 %8s  p95 %8s  p99 %8s  %s\n",
			h.label, render.NS(lastPt.P50[hc]), render.NS(lastPt.P95[hc]), render.NS(lastPt.P99[hc]), render.Spark(p99s))
	}
	fmt.Printf("series    %d points @ %s\n\n", len(ts.Points), time.Duration(ts.IntervalNanos))
}

// lastMetrics decodes the newest intact metrics record, nil if none.
func lastMetrics(recs []blackbox.Record) *mserve.MetricsSnapshot {
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind != blackbox.KindMetrics {
			continue
		}
		snap, err := mserve.ParseMetrics(recs[i].Payload)
		if err != nil {
			continue
		}
		return &snap
	}
	return nil
}

// printCoalesce renders the cross-connection batching picture from the
// final metrics snapshot: totals plus the fused-batch size quantiles.
func printCoalesce(snap *mserve.MetricsSnapshot) {
	if snap == nil {
		return
	}
	var batches, rows int64
	var hist *mserve.Metric
	for i := range snap.Metrics {
		m := &snap.Metrics[i]
		switch m.Name {
		case "mserve_coalesce_batches":
			batches = m.Value
		case "mserve_coalesce_rows":
			rows = m.Value
		case "mserve_coalesce_batch":
			hist = m
		}
	}
	if batches == 0 && rows == 0 {
		return
	}
	line := fmt.Sprintf("coalesce  %d fused batches, %d rows", batches, rows)
	if hist != nil && hist.Hist.Count > 0 {
		line += fmt.Sprintf("  batch p50=%d p95=%d p99=%d",
			hist.Hist.Quantile(0.50), hist.Hist.Quantile(0.95), hist.Hist.Quantile(0.99))
	}
	fmt.Println(line + "\n")
}

// printDrift walks every intact metrics record in capture order and
// renders each drift monitor's max-shift trajectory — the milli-z value
// per capture, sparklined, with the final window's verdict.
func printDrift(recs []blackbox.Record, last *mserve.MetricsSnapshot) {
	type point struct{ shift, churn, windows, drifted int64 }
	traj := map[string][]point{}
	for i := range recs {
		if recs[i].Kind != blackbox.KindMetrics {
			continue
		}
		snap, err := mserve.ParseMetrics(recs[i].Payload)
		if err != nil {
			continue
		}
		byName := make(map[string]int64, len(snap.Metrics))
		for _, m := range snap.Metrics {
			if m.Kind != mserve.MetricHistogram {
				byName[m.Name] = m.Value
			}
		}
		for _, prefix := range []string{"mserve_drift", "readahead_drift"} {
			if _, ok := byName[prefix+"_windows"]; !ok {
				continue
			}
			traj[prefix] = append(traj[prefix], point{
				shift:   byName[prefix+"_max_shift_mz"],
				churn:   byName[prefix+"_churn_pm"],
				windows: byName[prefix+"_windows"],
				drifted: byName[prefix+"_drifted"],
			})
		}
	}
	prefixes := make([]string, 0, len(traj))
	for p := range traj {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	for _, prefix := range prefixes {
		pts := traj[prefix]
		shifts := make([]uint64, len(pts))
		for i, p := range pts {
			if p.shift > 0 {
				shifts[i] = uint64(p.shift)
			}
		}
		end := pts[len(pts)-1]
		state := "ok"
		if end.drifted != 0 {
			state = "DRIFTED"
		}
		fmt.Printf("drift     %-15s %-8s shift %+5dmz  churn %4dpm  windows %d  %s\n",
			prefix, state, end.shift, end.churn, end.windows, render.Spark(shifts))
	}
	if len(prefixes) > 0 {
		fmt.Println()
	}
}

// printLearn renders the learner's recorded state transitions in capture
// order (the sampler persists a learn record only when the controller
// moved) and the retrain history from the final transition.
func printLearn(recs []blackbox.Record) {
	var states []blackbox.Record
	for i := range recs {
		if recs[i].Kind == blackbox.KindLearn {
			states = append(states, recs[i])
		}
	}
	if len(states) == 0 {
		return
	}
	var lastSt mserve.LearnStatus
	for _, r := range states {
		st, err := mserve.ParseLearnStatus(r.Payload)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kml-postmortem: learn record seq %d unparsable\n", r.Seq)
			continue
		}
		fmt.Printf("learn     %s state=%s v%d retrains=%d deploys=%d commits=%d rollbacks=%d fires=%d baseline=%dpm canary=%dpm\n",
			time.Unix(0, r.TimeNanos).UTC().Format("15:04:05.000"),
			mserve.LearnStateName(st.State), st.LastVersion, st.Retrains, st.Deploys,
			st.Commits, st.Rollbacks, st.TriggerFires, st.BaselinePM, st.CanaryPM)
		lastSt = st
	}
	for _, e := range lastSt.Events {
		fmt.Printf("retrain   v%-3d %s  %s  examples=%d train=%s baseline=%dpm canary=%dpm shift=%+dmz churn=%dpm\n",
			e.Version, time.Unix(0, int64(e.TimeNanos)).UTC().Format("15:04:05.000"),
			mserve.RetrainOutcomeName(e.Outcome), e.Examples,
			time.Duration(e.DurationNanos).Round(time.Millisecond),
			e.BaselinePM, e.CanaryPM, e.MaxShiftMZ, e.ChurnPM)
	}
	fmt.Println()
}

// printTraces reassembles every intact trace record, dedupes by TraceID
// (the newest capture of a trace wins), and renders the slowest n and
// the last n decisions as span trees.
func printTraces(recs []blackbox.Record, n int) {
	byID := map[dtrace.TraceID]dtrace.Trace{}
	var order []dtrace.TraceID // insertion order of first sighting
	for i := range recs {
		if recs[i].Kind != blackbox.KindTraces {
			continue
		}
		traces, err := dtrace.ParseTraces(recs[i].Payload)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kml-postmortem: trace record seq %d unparsable\n", recs[i].Seq)
			continue
		}
		for _, tr := range traces {
			if _, seen := byID[tr.ID]; !seen {
				order = append(order, tr.ID)
			}
			byID[tr.ID] = tr
		}
	}
	if len(order) == 0 {
		fmt.Println("traces    none recovered")
		return
	}
	if n <= 0 {
		n = 1
	}
	slowest := append([]dtrace.TraceID(nil), order...)
	sort.Slice(slowest, func(i, j int) bool {
		a, b := byID[slowest[i]], byID[slowest[j]]
		return a.Root().Duration() > b.Root().Duration()
	})
	fmt.Printf("slowest decisions (%d of %d recovered):\n", min(n, len(order)), len(order))
	for i := 0; i < len(slowest) && i < n; i++ {
		tr := byID[slowest[i]]
		render.Trace(os.Stdout, &tr)
	}
	fmt.Printf("last decisions before death:\n")
	start := len(order) - n
	if start < 0 {
		start = 0
	}
	for _, id := range order[start:] {
		tr := byID[id]
		render.Trace(os.Stdout, &tr)
	}
	fmt.Printf("%d traces recovered\n", len(order))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
