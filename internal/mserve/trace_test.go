package mserve

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dtrace"
)

// TestServerTracesEndToEnd drives single and batched inference over the
// wire and pulls the per-request traces back with Client.Traces(),
// checking span structure (parse → infer → encode under one root) and
// the request-shape attributes.
func TestServerTracesEndToEnd(t *testing.T) {
	s, sock := startServer(t, Config{TraceCapacity: 32})
	cl := dial(t, sock)

	// No traffic yet: an empty pull is valid and decodes to nothing.
	traces, err := cl.Traces()
	if err != nil || len(traces) != 0 {
		t.Fatalf("traces on idle server: n=%d err=%v", len(traces), err)
	}

	if _, err := s.Deploy(KindNN, "m", nnModelBytes(t, 42, 4)); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	const singles = 3
	for i := 0; i < singles; i++ {
		if _, _, err := cl.Infer([]float64{0.1, 0.2, 0.3, 0.4}); err != nil {
			t.Fatalf("infer %d: %v", i, err)
		}
	}
	flat := make([]float64, 8*4)
	if _, _, err := cl.BatchInfer(flat, 8, 4); err != nil {
		t.Fatalf("batch: %v", err)
	}
	// A failed request must not leave a trace: wrong feature width.
	if _, _, err := cl.Infer([]float64{1, 2}); !errors.Is(err, ErrRemote) {
		t.Fatalf("short infer: %v", err)
	}

	traces, err = cl.Traces()
	if err != nil {
		t.Fatalf("traces: %v", err)
	}
	if len(traces) != singles+1 {
		t.Fatalf("retained %d traces, want %d", len(traces), singles+1)
	}
	wantStages := []dtrace.Stage{
		dtrace.StageDecision, dtrace.StageQueue,
		dtrace.StageParse, dtrace.StageInfer, dtrace.StageEncode,
	}
	var lastID dtrace.TraceID
	for ti := range traces {
		tr := &traces[ti]
		if !tr.Complete() {
			t.Fatalf("trace %d incomplete: %+v", ti, tr)
		}
		if tr.ID <= lastID {
			t.Fatalf("trace IDs not increasing: %d after %d", tr.ID, lastID)
		}
		lastID = tr.ID
		if int(tr.N) != len(wantStages) {
			t.Fatalf("trace %d has %d spans, want %d", ti, tr.N, len(wantStages))
		}
		for si, sp := range tr.Used() {
			if sp.Stage != wantStages[si] {
				t.Fatalf("trace %d span %d stage %v, want %v", ti, si, sp.Stage, wantStages[si])
			}
			if si > 0 && sp.Parent != 1 {
				t.Fatalf("trace %d span %d parent %d, want root", ti, si, sp.Parent)
			}
		}
		root, infer := tr.Root(), tr.Spans[3]
		if ti < singles {
			// Single infer: root Aux = 1 row, infer class echoed in both.
			if root.Aux != 1 || root.Value != infer.Value || root.Value < 0 || root.Value > 3 {
				t.Fatalf("trace %d single-row attrs: root=%+v infer=%+v", ti, root, infer)
			}
		} else {
			// Batch: class is -1, Aux carries the row count.
			if root.Value != -1 || root.Aux != 8 || infer.Value != -1 {
				t.Fatalf("trace %d batch attrs: root=%+v infer=%+v", ti, root, infer)
			}
		}
		if tr.Spans[2].Value == 0 || tr.Spans[4].Value == 0 {
			t.Fatalf("trace %d parse/encode byte counts missing: %+v", ti, tr)
		}
		if q := &tr.Spans[1]; q.Start < root.Start || q.End > tr.Spans[2].Start {
			t.Fatalf("trace %d queue span [%d,%d] outside arrival→parse window", ti, q.Start, q.End)
		}
		// Inline, the forward pass holds exactly the request's rows.
		version, batchRows := dtrace.UnpackInferAux(infer.Aux)
		if version != 1 || batchRows != int(root.Aux) {
			t.Fatalf("trace %d infer aux = v%d batch %d, want v1 batch %d", ti, version, batchRows, root.Aux)
		}
	}
}

// TestServerTraceCapacityKeepLatest: the arena overwrites oldest-first at
// its configured capacity.
func TestServerTraceCapacityKeepLatest(t *testing.T) {
	s, sock := startServer(t, Config{TraceCapacity: 4})
	cl := dial(t, sock)
	if _, err := s.Deploy(KindDTree, "m", constTreeBytes(t, 2, 4)); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := cl.Infer([]float64{1, 2, 3, 4}); err != nil {
			t.Fatalf("infer %d: %v", i, err)
		}
	}
	traces, err := cl.Traces()
	if err != nil {
		t.Fatalf("traces: %v", err)
	}
	if len(traces) != 4 {
		t.Fatalf("retained %d traces, want 4", len(traces))
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].ID <= traces[i-1].ID {
			t.Fatalf("snapshot not oldest-first: %d then %d", traces[i-1].ID, traces[i].ID)
		}
	}
}

// driftReport returns the drift report for the server's deployed model,
// or false if nothing is deployed.
func driftReport(s *Server) (dtrace.DriftReport, bool) {
	m := s.drift.Load()
	if m == nil {
		return dtrace.DriftReport{}, false
	}
	return m.Report(), true
}

// TestServerDriftObservation: the server self-baselines a drift monitor
// per deployed model and its report/gauges move with served traffic.
func TestServerDriftObservation(t *testing.T) {
	s, sock := startServer(t, Config{DriftWindow: 4})
	cl := dial(t, sock)

	if _, ok := driftReport(s); ok {
		t.Fatal("drift report before any deploy")
	}
	if _, err := s.Deploy(KindNN, "m", nnModelBytes(t, 7, 4)); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if r, ok := driftReport(s); !ok || r.Decisions != 0 {
		t.Fatalf("fresh drift monitor: ok=%v %+v", ok, r)
	}

	// First window establishes the baseline; later windows shift the
	// population by +10 on every feature.
	for i := 0; i < 4; i++ {
		if _, _, err := cl.Infer([]float64{0.1, 0.2, 0.3, 0.4}); err != nil {
			t.Fatalf("baseline infer: %v", err)
		}
	}
	flat := make([]float64, 8*4)
	for i := range flat {
		flat[i] = 10
	}
	if _, _, err := cl.BatchInfer(flat, 8, 4); err != nil {
		t.Fatalf("shifted batch: %v", err)
	}

	r, ok := driftReport(s)
	if !ok {
		t.Fatal("drift monitor vanished")
	}
	if r.Decisions != 12 || r.Windows != 3 {
		t.Fatalf("drift decisions/windows = %d/%d, want 12/3", r.Decisions, r.Windows)
	}
	if !r.BaselineReady || r.MaxShift <= 0 {
		t.Fatalf("shifted traffic not flagged: %+v", r)
	}
	// The gauges ride the normal metrics surface.
	snap, err := cl.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	found := false
	for _, m := range snap.Metrics {
		if strings.HasPrefix(m.Name, "mserve_drift_") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("mserve_drift gauges absent from the metrics snapshot")
	}

	// A redeploy installs a fresh monitor for the new model.
	if _, err := s.Deploy(KindDTree, "m2", constTreeBytes(t, 1, 4)); err != nil {
		t.Fatalf("deploy v2: %v", err)
	}
	if r, ok := driftReport(s); !ok || r.Decisions != 0 {
		t.Fatalf("drift monitor not reset on deploy: ok=%v %+v", ok, r)
	}
}

// TestServerUnknownMessage: an unrecognized message type — the retired
// deploy (3) and rollback (4) among them — gets a clean MsgError frame and
// the connection stays usable afterwards.
func TestServerUnknownMessage(t *testing.T) {
	s, sock := startServer(t, Config{})
	cl := dial(t, sock)

	for _, unknown := range []MsgType{3, 4, 99} {
		typ, _, err := cl.do(unknown, []byte{1, 2, 3})
		if !errors.Is(err, ErrRemote) || typ != MsgError {
			t.Fatalf("unknown message %d: typ=%d err=%v", unknown, typ, err)
		}
		if want := fmt.Sprintf("unknown message type %d", unknown); !strings.Contains(err.Error(), want) {
			t.Fatalf("error should name the bad type %d: %v", unknown, err)
		}
	}
	// Same connection still serves requests.
	if ok, _, _, err := cl.Health(); err != nil || ok {
		t.Fatalf("health after unknown message: ok=%v err=%v", ok, err)
	}
	if _, err := s.Deploy(KindDTree, "m", constTreeBytes(t, 0, 4)); err != nil {
		t.Fatalf("deploy after unknown message: %v", err)
	}
	if class, _, err := cl.Infer([]float64{1, 2, 3, 4}); err != nil || class != 0 {
		t.Fatalf("infer after unknown message: class=%d err=%v", class, err)
	}
}
