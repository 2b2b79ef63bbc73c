package mserve

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dtrace"
)

// TestRequestPathMatrix runs every inference request shape — MsgInfer,
// MsgBatchInfer with 1 and with 7 rows — inline and coalesced, traced and
// untraced, through the server's one request path. Every variant must
// classify like a reference Instance, move Inferences/Rows/Collected by
// the same amounts in both modes, record a decision with Class = class
// (MsgInfer) or -1 (MsgBatchInfer), and record root → queue → parse → infer → encode with
// the request's shape on the root, the served version and the forward
// pass's rows on the infer span, under the client's ID when it sent one.
// Inline, the four stage spans tile the root span with no gap.
func TestRequestPathMatrix(t *testing.T) {
	const nfeat = 4
	shapes := []struct {
		name string
		typ  MsgType
		rows int
	}{{"infer", MsgInfer, 1}, {"batch1", MsgBatchInfer, 1}, {"batch7", MsgBatchInfer, 7}}
	for _, coalesce := range []bool{false, true} {
		cfg := Config{TraceCapacity: 8}
		if coalesce {
			cfg.CoalesceWindow, cfg.CoalesceMax = 100*time.Microsecond, 8
		}
		s, sock := startServer(t, cfg)
		if _, err := s.Deploy(KindNN, "m", nnModelBytes(t, 42, nfeat)); err != nil {
			t.Fatal(err)
		}
		art, err := s.Registry().ActiveArtifact()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := art.Instantiate()
		if err != nil {
			t.Fatal(err)
		}
		cl := dial(t, sock)
		rng := rand.New(rand.NewSource(7))
		for _, sh := range shapes {
			for _, traced := range []bool{false, true} {
				t.Run(fmt.Sprintf("coalesce=%v/%s/traced=%v", coalesce, sh.name, traced), func(t *testing.T) {
					var arena *dtrace.Arena
					if traced {
						arena = dtrace.NewArena(4)
					}
					cl.EnableTracing(arena)
					feats := make([]float64, sh.rows*nfeat)
					for i := range feats {
						feats[i] = rng.NormFloat64()
					}
					want := make([]int, sh.rows)
					ref.PredictBatch(feats, sh.rows, want)

					before := s.Stats()
					got := make([]int, 0, sh.rows)
					wantClass := int64(-1)
					if sh.typ == MsgInfer {
						c, _, err := cl.Infer(feats)
						if err != nil {
							t.Fatal(err)
						}
						got, wantClass = append(got, c), int64(c)
					} else {
						cs, _, err := cl.BatchInfer(feats, sh.rows, nfeat)
						if err != nil {
							t.Fatal(err)
						}
						for _, c := range cs[:sh.rows] {
							got = append(got, int(c))
						}
					}
					for r := range want {
						if got[r] != want[r] {
							t.Fatalf("row %d: class %d, reference %d", r, got[r], want[r])
						}
					}

					after := s.Stats()
					if after.Collected != after.Inferences {
						t.Fatalf("%d decisions recorded for %d inferences", after.Collected, after.Inferences)
					}
					if d := [3]uint64{
						after.Inferences - before.Inferences,
						after.Rows - before.Rows,
						after.Collected - before.Collected,
					}; d != [3]uint64{1, uint64(sh.rows), 1} {
						t.Fatalf("Inferences/Rows/Collected moved by %v, want [1 %d 1]", d, sh.rows)
					}
					wantGathered := uint64(0)
					if coalesce {
						wantGathered = uint64(sh.rows)
					}
					if n := after.CoalesceRows - before.CoalesceRows; n != wantGathered {
						t.Fatalf("%d rows went through the coalescer, want %d", n, wantGathered)
					}
					decs := s.Metrics().Decisions
					if last := decs[len(decs)-1]; int64(last.Class) != wantClass || int(last.Rows) != sh.rows {
						t.Fatalf("recorded decision class=%d rows=%d, want %d/%d", last.Class, last.Rows, wantClass, sh.rows)
					}

					traces := s.Traces()
					tr := &traces[len(traces)-1]
					if traced && tr.ID != newestTraceID(arena) {
						t.Fatalf("newest server trace %#x, want the client's %#x", tr.ID, newestTraceID(arena))
					}
					if !traced && uint64(tr.ID)&ClientTraceIDBit != 0 {
						t.Fatalf("untraced request recorded under client-style ID %#x", tr.ID)
					}
					stages := []dtrace.Stage{
						dtrace.StageDecision, dtrace.StageQueue, dtrace.StageParse,
						dtrace.StageInfer, dtrace.StageEncode,
					}
					if !tr.Complete() || int(tr.N) != len(stages) {
						t.Fatalf("trace %+v: want %d complete spans", tr, len(stages))
					}
					for i, sp := range tr.Used() {
						if sp.Stage != stages[i] || (i > 0 && sp.Parent != 1) {
							t.Fatalf("span %d = %v under %d, want %v under the root", i, sp.Stage, sp.Parent, stages[i])
						}
					}
					root, infer := tr.Root(), &tr.Spans[3]
					if root.Value != wantClass || root.Aux != int64(sh.rows) || infer.Value != wantClass {
						t.Fatalf("root value/aux %d/%d, infer value %d; want %d/%d, %d",
							root.Value, root.Aux, infer.Value, wantClass, sh.rows, wantClass)
					}
					version, batchRows := dtrace.UnpackInferAux(infer.Aux)
					if version != 1 || batchRows < sh.rows {
						t.Fatalf("infer aux v%d batch %d, want v1 batch >= %d", version, batchRows, sh.rows)
					}
					if coalesce {
						return
					}
					// Inline, each stage starts at the clock read that ended
					// the one before: the stages tile the root, so their
					// durations sum to its duration exactly.
					var sum int64
					end := root.Start
					for i, sp := range tr.Used()[1:] {
						if sp.Start != end {
							t.Fatalf("%v span starts at %d, %d ns after the previous boundary", stages[i+1], sp.Start, sp.Start-end)
						}
						sum, end = sum+sp.Duration(), sp.End
					}
					if sum != root.Duration() || end != root.End {
						t.Fatalf("stage spans sum to %d ns and end at %d; the root lasts %d ns and ends at %d", sum, end, root.Duration(), root.End)
					}
				})
			}
		}
	}
}
