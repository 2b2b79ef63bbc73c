// Package render is the one text printer for every operator surface:
// kml-ctl's subcommands and kml-served's debug pages print the same fact
// through the same function, live or from a black box after a crash.
// This file holds the primitives (sparklines, compact durations, the
// decision-trace span tree, the plain-integer time-series dump);
// status.go holds the surfaces built on them. Scaling is integer math
// only, like the recorders the surfaces read, and wall-clock stamps are
// UTC except the span trees', whose bytes are pinned.
package render

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/dtrace"
	"repro/internal/telemetry/tsrec"
)

// sparkRunes is the 8-level block ramp.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Spark renders the last 32 values as a sparkline scaled to their
// maximum. All-zero input renders the floor rune for every point.
func Spark(vals []uint64) string {
	const width = 32
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	var max uint64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	for _, v := range vals {
		idx := 0
		if max > 0 {
			idx = int(v * uint64(len(sparkRunes)-1) / max)
		}
		sb.WriteRune(sparkRunes[idx])
	}
	return sb.String()
}

// NS renders a nanosecond quantile compactly (µs precision above 10µs,
// ms above 10ms).
func NS(ns int64) string {
	switch {
	case ns >= 10_000_000:
		return fmt.Sprintf("%dms", ns/1_000_000)
	case ns >= 10_000:
		return fmt.Sprintf("%dµs", ns/1_000)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// Dur renders a span duration, "?" for a negative one.
func Dur(ns int64) string {
	if ns < 0 {
		return "?"
	}
	return time.Duration(ns).String()
}

// SeriesText writes a captured time series as plain integers, the form
// `kml-ctl series` and the /timeseries debug page print: the interval, the
// column names, one line per point (time, counter deltas, then
// count/p50/p95/p99 per histogram), and a trailing point count.
func SeriesText(w io.Writer, ts tsrec.Series) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "interval_ns %d\n", ts.IntervalNanos)
	fmt.Fprintf(&sb, "counters %s\n", strings.Join(ts.Counters, " "))
	fmt.Fprintf(&sb, "hists %s\n", strings.Join(ts.Hists, " "))
	for i := range ts.Points {
		p := &ts.Points[i]
		fmt.Fprintf(&sb, "point %d", p.TimeNanos)
		for c := range ts.Counters {
			fmt.Fprintf(&sb, " %d", p.Deltas[c])
		}
		for h := range ts.Hists {
			fmt.Fprintf(&sb, " %d %d %d %d", p.Counts[h], p.P50[h], p.P95[h], p.P99[h])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%d points\n", len(ts.Points))
	_, err := io.WriteString(w, sb.String())
	return err
}

// Column finds a named series column, -1 if absent.
func Column(names []string, want string) int {
	for i, n := range names {
		if n == want {
			return i
		}
	}
	return -1
}

// Trace writes one trace as a span tree: the root line, then each span
// under its parent (children of span i carry Parent == i+1, the wire
// format's 1-based parent index).
func Trace(w io.Writer, tr *dtrace.Trace) {
	root := tr.Root()
	fmt.Fprintf(w, "trace %d  %s  %s  %s\n",
		tr.ID, time.Unix(0, root.Start).Format("15:04:05.000000"),
		Dur(root.Duration()), SpanDetail(*root))
	children(w, tr, 1, "  ")
}

func children(w io.Writer, tr *dtrace.Trace, parent uint8, indent string) {
	spans := tr.Used()
	// Find the children of `parent` to know which connector to draw.
	last := -1
	for i := range spans {
		if i > 0 && spans[i].Parent == parent {
			last = i
		}
	}
	for i := range spans {
		if i == 0 || spans[i].Parent != parent {
			continue
		}
		conn := "├─"
		if i == last {
			conn = "└─"
		}
		fmt.Fprintf(w, "%s%s %-10s %8s  %s\n",
			indent, conn, spans[i].Stage, Dur(spans[i].Duration()), SpanDetail(spans[i]))
		children(w, tr, uint8(i+1), indent+"   ")
	}
}

// SpanDetail renders a span's Value/Aux using the stage's documented
// attribute semantics (see dtrace.Span).
func SpanDetail(sp dtrace.Span) string {
	switch sp.Stage {
	case dtrace.StageDecision:
		if sp.Value < 0 {
			return fmt.Sprintf("batch rows=%d", sp.Aux)
		}
		return fmt.Sprintf("class=%d", sp.Value)
	case dtrace.StageFeature:
		return fmt.Sprintf("events=%d", sp.Value)
	case dtrace.StageNormalize:
		return fmt.Sprintf("nfeat=%d", sp.Value)
	case dtrace.StageInfer:
		version, batchRows := dtrace.UnpackInferAux(sp.Aux)
		d := fmt.Sprintf("v%d", version)
		if sp.Value >= 0 {
			d = fmt.Sprintf("class=%d %s", sp.Value, d)
		}
		if batchRows > 0 {
			d += fmt.Sprintf(" batch=%d", batchRows)
		}
		return d
	case dtrace.StageApply:
		return fmt.Sprintf("readahead %d<-%d sectors", sp.Value, sp.Aux)
	case dtrace.StageOutcome:
		if sp.Aux < 0 {
			return "hit rate unknown"
		}
		return fmt.Sprintf("hit rate %dpm (%+dpm)", sp.Aux, sp.Value)
	case dtrace.StageParse, dtrace.StageEncode:
		return fmt.Sprintf("bytes=%d", sp.Value)
	case dtrace.StageQueue:
		return fmt.Sprintf("delay=%s", Dur(sp.Value))
	case dtrace.StageClient:
		if sp.Value < 0 {
			return fmt.Sprintf("batch rows=%d", sp.Aux)
		}
		return fmt.Sprintf("class=%d", sp.Value)
	case dtrace.StageWire:
		return fmt.Sprintf("req=%dB resp=%dB", sp.Aux, sp.Value)
	}
	return fmt.Sprintf("v=%d aux=%d", sp.Value, sp.Aux)
}
