package mserve

import (
	"testing"

	"repro/internal/dtrace"
)

// newestTraceID returns the ID of the newest trace a client recorded in
// arena, 0 when there is none.
func newestTraceID(arena *dtrace.Arena) dtrace.TraceID {
	trs := arena.Snapshot()
	if len(trs) == 0 {
		return 0
	}
	return trs[len(trs)-1].ID
}

// TestCrossProcessTracePropagation is the tentpole gate for distributed
// tracing: a traced client stamps its TraceID into the request frame,
// and the server records its own span tree UNDER THAT ID — so pulling
// MsgTraces yields a server trace whose ID matches the client's arena
// exactly, and `kml-ctl probe` can join the two into one tree.
func TestCrossProcessTracePropagation(t *testing.T) {
	s, sock := startServer(t, Config{TraceCapacity: 32})
	cl := dial(t, sock)
	if _, err := s.Deploy(KindNN, "m", nnModelBytes(t, 42, 4)); err != nil {
		t.Fatalf("deploy: %v", err)
	}

	arena := dtrace.NewArena(16)
	cl.EnableTracing(arena)
	if newestTraceID(arena) != 0 {
		t.Fatal("a trace before any traced request")
	}

	if _, _, err := cl.Infer([]float64{0.1, 0.2, 0.3, 0.4}); err != nil {
		t.Fatalf("infer: %v", err)
	}
	inferID := newestTraceID(arena)
	flat := make([]float64, 8*4)
	if _, _, err := cl.BatchInfer(flat, 8, 4); err != nil {
		t.Fatalf("batch: %v", err)
	}
	batchID := newestTraceID(arena)
	if inferID == 0 || batchID == 0 || inferID == batchID {
		t.Fatalf("trace IDs: infer=%#x batch=%#x", inferID, batchID)
	}
	for _, id := range []dtrace.TraceID{inferID, batchID} {
		if uint64(id)&ClientTraceIDBit == 0 {
			t.Fatalf("client-minted ID %#x lacks ClientTraceIDBit", id)
		}
	}

	// Client side: one complete trace per inference call, root StageClient
	// over encode → wire → parse, carrying the stamped IDs.
	ctraces := arena.Snapshot()
	if len(ctraces) != 2 {
		t.Fatalf("client retained %d traces, want 2", len(ctraces))
	}
	wantStages := []dtrace.Stage{
		dtrace.StageClient, dtrace.StageEncode, dtrace.StageWire, dtrace.StageParse,
	}
	for i := range ctraces {
		tr := &ctraces[i]
		if !tr.Complete() {
			t.Fatalf("client trace %d incomplete: %+v", i, tr)
		}
		if int(tr.N) != len(wantStages) {
			t.Fatalf("client trace %d has %d spans, want %d", i, tr.N, len(wantStages))
		}
		for si, sp := range tr.Used() {
			if sp.Stage != wantStages[si] {
				t.Fatalf("client trace %d span %d stage %v, want %v", i, si, sp.Stage, wantStages[si])
			}
		}
	}
	if ctraces[0].ID != inferID || ctraces[1].ID != batchID {
		t.Fatalf("client trace IDs %#x/%#x, want %#x/%#x",
			ctraces[0].ID, ctraces[1].ID, inferID, batchID)
	}
	// Root attributes echo the responses: class for the single infer,
	// batch marker plus row count for the batch.
	if r := ctraces[0].Root(); r.Aux != 1 || r.Value < 0 || r.Value > 3 {
		t.Fatalf("client infer root attrs: %+v", r)
	}
	if r := ctraces[1].Root(); r.Value != -1 || r.Aux != 8 {
		t.Fatalf("client batch root attrs: %+v", r)
	}

	// Server side: the join. The server's traces for these requests carry
	// the CLIENT's IDs, and each server root window nests inside the
	// client's wire span (same host clock).
	straces, err := cl.Traces()
	if err != nil {
		t.Fatalf("traces: %v", err)
	}
	byID := make(map[dtrace.TraceID]*dtrace.Trace, len(straces))
	for i := range straces {
		byID[straces[i].ID] = &straces[i]
	}
	for i, id := range []dtrace.TraceID{inferID, batchID} {
		srv, ok := byID[id]
		if !ok {
			t.Fatalf("server retained no trace under client ID %#x", id)
		}
		if !srv.Complete() {
			t.Fatalf("server trace %#x incomplete", id)
		}
		if got := srv.Spans[1].Stage; got != dtrace.StageQueue {
			t.Fatalf("server trace %#x first child stage %v, want queue", id, got)
		}
		wire := ctraces[i].Spans[2]
		if sr := srv.Root(); sr.Start < wire.Start || sr.End > wire.End {
			t.Fatalf("server root [%d,%d] outside client wire span [%d,%d]",
				sr.Start, sr.End, wire.Start, wire.End)
		}
	}

	// Control-plane calls on a traced client stay untraced: no new client
	// trace appears (and the server records no trace for them either).
	if _, err := cl.Stats(); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if arena.Len() != 2 {
		t.Fatalf("control-plane call recorded a client trace: %d retained", arena.Len())
	}
}

// TestClientTracingAllocFree gates the propagation overhead: the tracing
// machinery a traced request adds — mint the ID, build four spans,
// record into the arena — allocates nothing. The wire round trip around
// it is covered by the server-side gate (TestBatchInferAllocFree).
func TestClientTracingAllocFree(t *testing.T) {
	arena := dtrace.NewArena(8)
	cl := &Client{}
	cl.EnableTracing(arena)
	run := func() {
		if tid := cl.startTrace(); tid == 0 {
			t.Fatal("startTrace returned 0 with tracing enabled")
		}
		es := cl.tb.Begin(dtrace.StageEncode, 0, 10)
		cl.tb.End(es, 20)
		ws := cl.tb.Begin(dtrace.StageWire, 0, 20)
		cl.tb.End(ws, 90)
		ps := cl.tb.Begin(dtrace.StageParse, 0, 90)
		cl.tb.End(ps, 100)
		cl.finishTrace(2, 1)
	}
	run() // warm the arena's ring
	if a := testing.AllocsPerRun(200, run); a != 0 {
		t.Errorf("client tracing allocates %.1f/run, want 0", a)
	}
}
