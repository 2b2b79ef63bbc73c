package mserve

import (
	"testing"
	"time"

	"repro/internal/telemetry/tsrec"
)

// TestServerTimeSeriesEndToEnd: the server's recorder captures points at
// the configured interval while traffic flows, and MsgTimeSeries hands
// them to the client — named columns, monotonic timestamps, and counter
// deltas that add up to the traffic actually served.
func TestServerTimeSeriesEndToEnd(t *testing.T) {
	const interval = 20 * time.Millisecond
	s, sock := startServer(t, Config{
		TimeSeriesInterval: interval,
		TimeSeriesCapacity: 64,
	})
	cl := dial(t, sock)
	if _, err := s.Deploy(KindNN, "m", nnModelBytes(t, 42, 4)); err != nil {
		t.Fatalf("deploy: %v", err)
	}

	// Keep issuing requests until at least three captured points arrive
	// (or the deadline says the ticker never fired).
	deadline := time.Now().Add(10 * time.Second)
	var (
		sent int
		ts   = tsPoll(t, cl, &sent, deadline)
	)

	if ts.IntervalNanos != int64(interval) {
		t.Fatalf("interval %d, want %d", ts.IntervalNanos, int64(interval))
	}
	rowsCol, inferCol := -1, -1
	for i, name := range ts.Counters {
		switch name {
		case "mserve_rows":
			rowsCol = i
		case "mserve_inferences":
			inferCol = i
		}
	}
	if rowsCol < 0 || inferCol < 0 {
		t.Fatalf("counter columns missing: %v", ts.Counters)
	}
	histCol := -1
	for i, name := range ts.Hists {
		if name == "mserve_infer_ns" {
			histCol = i
		}
	}
	if histCol < 0 {
		t.Fatalf("mserve_infer_ns column missing: %v", ts.Hists)
	}

	var rows, infers, histN uint64
	for i := range ts.Points {
		p := &ts.Points[i]
		if i > 0 && p.TimeNanos <= ts.Points[i-1].TimeNanos {
			t.Fatalf("timestamps not monotonic: %d after %d",
				p.TimeNanos, ts.Points[i-1].TimeNanos)
		}
		rows += p.Deltas[rowsCol]
		infers += p.Deltas[inferCol]
		histN += p.Counts[histCol]
		// A point that observed inferences must carry their quantiles.
		if p.Counts[histCol] > 0 && p.P99[histCol] <= 0 {
			t.Fatalf("point %d: %d observations but p99=%d",
				i, p.Counts[histCol], p.P99[histCol])
		}
	}
	if rows == 0 || infers == 0 || histN == 0 {
		t.Fatalf("deltas all zero under traffic: rows=%d infers=%d hist=%d", rows, infers, histN)
	}
	if rows > uint64(sent) || infers > uint64(sent) {
		t.Fatalf("deltas exceed traffic: rows=%d infers=%d sent=%d", rows, infers, sent)
	}
}

// tsPoll drives single inferences until the time series holds at least
// three points, returning the snapshot that crossed the threshold.
func tsPoll(t *testing.T, cl *Client, sent *int, deadline time.Time) tsrec.Series {
	t.Helper()
	for {
		if _, _, err := cl.Infer([]float64{0.1, 0.2, 0.3, 0.4}); err != nil {
			t.Fatalf("infer: %v", err)
		}
		*sent++
		got, err := cl.TimeSeries()
		if err != nil {
			t.Fatalf("timeseries: %v", err)
		}
		if len(got.Points) >= 3 {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("recorder captured %d points before deadline", len(got.Points))
		}
		time.Sleep(2 * time.Millisecond)
	}
}
