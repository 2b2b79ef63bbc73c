// Plain-text renderers for the HTTP debug surface. kml-served mounts
// these as telemetry.DebugEndpoint extras (/traces, /learn) next to
// /metrics, so an operator with curl gets the same decision traces and
// retrain history the wire protocol serves — no client binary needed.
// These are operator pages, not machine formats: one line per item,
// stable field order, nothing the serving path depends on.
package mserve

import (
	"fmt"
	"io"
	"time"

	"repro/internal/render"
)

// WriteTraces renders the retained request traces (oldest first) as
// span trees, the way kml-trace prints them, then the retained count.
func (s *Server) WriteTraces(w io.Writer) error {
	traces := s.Traces()
	for i := range traces {
		render.Trace(w, &traces[i])
	}
	_, err := fmt.Fprintf(w, "%d traces retained\n", len(traces))
	return err
}

// WriteTimeSeries renders the captured metric time series as plain
// text, the same text `kml-top -raw` prints (render.SeriesText). The
// format doubles as an archival dump — kml-top's -from replay parses the
// binary form, this page is for eyes and grep.
func (s *Server) WriteTimeSeries(w io.Writer) error {
	return render.SeriesText(w, s.TimeSeries())
}

// WriteLearn renders the online-learning controller's status and
// retrain history as plain text. A server without a controller renders
// the idle zero status.
func (s *Server) WriteLearn(w io.Writer) error {
	st := s.LearnStatus()
	if _, err := fmt.Fprintf(w,
		"state=%s retrains=%d deploys=%d commits=%d rollbacks=%d fires=%d examples=%d version=%d baseline_pm=%d canary_pm=%d\n",
		LearnStateName(st.State), st.Retrains, st.Deploys, st.Commits, st.Rollbacks,
		st.TriggerFires, st.Examples, st.LastVersion, st.BaselinePM, st.CanaryPM); err != nil {
		return err
	}
	for _, e := range st.Events {
		if _, err := fmt.Fprintf(w,
			"retrain v%d %s outcome=%s examples=%d train=%s baseline_pm=%d canary_pm=%d shift_mz=%d churn_pm=%d\n",
			e.Version, time.Unix(0, int64(e.TimeNanos)).UTC().Format("15:04:05.000"),
			RetrainOutcomeName(e.Outcome), e.Examples,
			time.Duration(e.DurationNanos).Round(time.Millisecond),
			e.BaselinePM, e.CanaryPM, e.MaxShiftMZ, e.ChurnPM); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%d retrain events\n", len(st.Events))
	return err
}
