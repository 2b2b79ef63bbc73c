// Command kml-top is the live serving console: it polls a running
// kml-served for its captured metric time series (MsgTimeSeries), the
// telemetry snapshot (MsgMetrics), and the online-learning status
// (MsgLearnStatus), and renders a compact top-style frame — throughput,
// latency quantiles with sparklines, queueing, drift, and retrain state
// — refreshing in place until interrupted.
//
// Typical use:
//
//	kml-top -addr /run/kml.sock                   # live console, 1s refresh
//	kml-top -addr /run/kml.sock -once             # one frame and exit
//	kml-top -addr /run/kml.sock -raw              # machine-readable point dump
//	kml-top -from kml.blackbox                    # replay an archived capture
//	kml-top -from series.bin -raw                 # dump an archived capture
//
// -from replays a file instead of a live socket: either a black-box
// flight-recorder file (recovered and merged, see kml-postmortem) or a
// raw binary series as emitted by `kml-postmortem -raw` — the operator
// "scrubs" a dead server's final minute through the same renderer the
// live console uses.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/blackbox"
	"repro/internal/mserve"
	"repro/internal/render"
	"repro/internal/telemetry/tsrec"
)

func main() {
	var (
		network  = flag.String("network", "unix", "server network: unix or tcp")
		addr     = flag.String("addr", "kml-served.sock", "server address (socket path or host:port)")
		interval = flag.Duration("interval", time.Second, "refresh period")
		once     = flag.Bool("once", false, "render one frame and exit")
		raw      = flag.Bool("raw", false, "dump the raw time-series points (one line per point) and exit")
		from     = flag.String("from", "", "replay a time-series file (black-box or raw series) instead of a live socket")
	)
	flag.Parse()

	if *from != "" {
		ts, err := loadSeriesFile(*from)
		if err != nil {
			fatal(err)
		}
		if *raw {
			if err := render.SeriesText(os.Stdout, ts); err != nil {
				fatal(err)
			}
			return
		}
		fmt.Printf("kml-top  (from %s)\n", *from)
		renderSeries(os.Stdout, ts)
		fmt.Printf("series  %d points @ %s\n", len(ts.Points), time.Duration(ts.IntervalNanos))
		return
	}

	cl, err := mserve.Dial(*network, *addr)
	if err != nil {
		fatal(err)
	}
	defer cl.Close()

	if *raw {
		ts, err := cl.TimeSeries()
		if err != nil {
			fatal(err)
		}
		if err := render.SeriesText(os.Stdout, ts); err != nil {
			fatal(err)
		}
		return
	}
	if *once {
		if err := renderFrame(os.Stdout, cl, false); err != nil {
			fatal(err)
		}
		return
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		if err := renderFrame(os.Stdout, cl, true); err != nil {
			fatal(err)
		}
		select {
		case <-sigs:
			fmt.Println()
			return
		case <-tick.C:
		}
	}
}

// loadSeriesFile reads an archived time series: a black-box file
// (sniffed by magic, recovered with the same torn-tolerant scan
// kml-postmortem uses, time-series records merged) or a raw binary
// series in tsrec's canonical wire encoding.
func loadSeriesFile(path string) (tsrec.Series, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return tsrec.Series{}, err
	}
	if bytes.HasPrefix(data, []byte("KMLBBOX1")) {
		res, err := blackbox.Scan(data)
		if err != nil {
			return tsrec.Series{}, err
		}
		ts, skipped := blackbox.MergeTimeSeries(res.Records)
		if res.Torn > 0 || skipped > 0 {
			fmt.Fprintf(os.Stderr, "kml-top: %s: %d torn records, %d unparsable series records skipped\n",
				path, res.Torn, skipped)
		}
		return ts, nil
	}
	ts, err := tsrec.ParseSeries(data)
	if err != nil {
		return tsrec.Series{}, fmt.Errorf("%s: neither a black-box file nor a raw series: %w", path, err)
	}
	return ts, nil
}

// renderFrame pulls one round of surfaces and writes the console frame.
// With clear set it homes the cursor first (live mode).
func renderFrame(w *os.File, cl *mserve.Client, clear bool) error {
	ts, err := cl.TimeSeries()
	if err != nil {
		return err
	}
	snap, err := cl.Metrics()
	if err != nil {
		return err
	}
	st, err := cl.Stats()
	if err != nil {
		return err
	}
	learn, err := cl.LearnStatus()
	if err != nil {
		return err
	}
	if clear {
		fmt.Fprint(w, "\x1b[2J\x1b[H")
	}

	fmt.Fprintf(w, "kml-top  %s  v%d  conns %d/%d  errors %d\n",
		time.Now().Format("15:04:05"), st.ActiveVersion, st.Conns, st.MaxConns, st.Errors)

	renderSeries(w, ts)

	// Drift and learn lines from the gauge surface and MsgLearnStatus.
	gauges := make(map[string]int64, len(snap.Metrics))
	for _, m := range snap.Metrics {
		if m.Kind != mserve.MetricHistogram {
			gauges[m.Name] = m.Value
		}
	}
	for _, prefix := range []string{"mserve_drift", "readahead_drift"} {
		if _, ok := gauges[prefix+"_windows"]; !ok {
			continue
		}
		state := "ok"
		if gauges[prefix+"_drifted"] != 0 {
			state = "DRIFTED"
		}
		fmt.Fprintf(w, "drift   %-15s %-8s shift %+5dmz  churn %4dpm  windows %d\n",
			prefix, state, gauges[prefix+"_max_shift_mz"],
			gauges[prefix+"_churn_pm"], gauges[prefix+"_windows"])
	}
	fmt.Fprintf(w, "learn   state=%s retrains=%d commits=%d rollbacks=%d baseline=%dpm canary=%dpm\n",
		mserve.LearnStateName(learn.State), learn.Retrains, learn.Commits,
		learn.Rollbacks, learn.BaselinePM, learn.CanaryPM)
	fmt.Fprintf(w, "series  %d points @ %s  (rows total %d, inferences %d, dropped %d)\n",
		len(ts.Points), time.Duration(ts.IntervalNanos), st.Rows, st.Inferences, st.Dropped)
	return nil
}

// renderSeries writes the throughput and latency lines for one series —
// shared between the live frame and the -from file replay.
func renderSeries(w io.Writer, ts tsrec.Series) {
	// Throughput: rows per second from the counter deltas, integer math
	// only (delta × 1e9 / interval_ns).
	rowsCol := render.Column(ts.Counters, "mserve_rows")
	if rowsCol >= 0 && ts.IntervalNanos > 0 && len(ts.Points) > 0 {
		rates := make([]uint64, len(ts.Points))
		for i := range ts.Points {
			rates[i] = ts.Points[i].Deltas[rowsCol] * 1_000_000_000 / uint64(ts.IntervalNanos)
		}
		fmt.Fprintf(w, "throughput %8d rows/s  %s\n", rates[len(rates)-1], render.Spark(rates))
	} else {
		fmt.Fprintf(w, "throughput        ? rows/s  (no time series yet)\n")
	}

	// Latency: live quantiles of the single-infer histogram, p99
	// sparkline over the capture window; queue delay rides along.
	for _, h := range []struct{ col, label string }{
		{"mserve_infer_ns", "infer"},
		{"mserve_queue_delay_ns", "queue"},
	} {
		hc := render.Column(ts.Hists, h.col)
		if hc < 0 || len(ts.Points) == 0 {
			continue
		}
		last := &ts.Points[len(ts.Points)-1]
		p99s := make([]uint64, len(ts.Points))
		for i := range ts.Points {
			p99s[i] = uint64(ts.Points[i].P99[hc])
		}
		fmt.Fprintf(w, "%-7s p50 %8s  p95 %8s  p99 %8s  %s\n",
			h.label, render.NS(last.P50[hc]), render.NS(last.P95[hc]), render.NS(last.P99[hc]), render.Spark(p99s))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
