package mserve

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dtrace"
)

// coalescedServer boots a serving socket with cross-connection batch
// coalescing enabled and the test model deployed.
func coalescedServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.CoalesceWindow == 0 {
		cfg.CoalesceWindow = 2 * time.Millisecond
	}
	s, sock := startServer(t, cfg)
	if _, err := s.Deploy(KindNN, "m", nnModelBytes(t, 42, 4)); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return s, sock
}

// TestCoalesceRoutesBitExact is the coalescer's core acceptance gate,
// meant for the -race run: N concurrent tracing clients each stream
// single-row Infer requests while the model is hot-swapped mid-load, and
// every response must (a) route back to its own connection bit-exact
// against an uncoalesced local reference, (b) never fail, and (c) leave
// the achieved-batch telemetry proving rows actually shared batches.
// The server has a single gather domain, so "shards1" is the only case.
func TestCoalesceRoutesBitExact(t *testing.T) {
	t.Run("shards1", coalesceRoutesBitExact)
}

func coalesceRoutesBitExact(t *testing.T) {
	s, sock := coalescedServer(t, Config{
		MaxConns:      128,
		CoalesceMax:   32,
		TraceCapacity: 64,
	})
	art, err := s.Registry().ActiveArtifact()
	if err != nil {
		t.Fatalf("active artifact: %v", err)
	}

	const workers = 64
	const perWorker = 30
	var failures atomic.Uint64
	var mismatches atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Hot-swap the same weights under load: versions move, the
	// function served does not, so bit-exactness stays checkable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		model := nnModelBytes(t, 42, 4)
		for i := 0; i < 3; i++ {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
			}
			if _, err := s.Deploy(KindNN, "m", model); err != nil {
				t.Errorf("hot-swap deploy %d: %v", i, err)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial("unix", sock)
			if err != nil {
				failures.Add(1)
				return
			}
			defer cl.Close()
			cl.SetTimeout(10 * time.Second)
			arena := dtrace.NewArena(8)
			cl.EnableTracing(arena)
			// Per-worker reference instance: the uncoalesced
			// answer for the same weights.
			ref, err := art.Instantiate()
			if err != nil {
				failures.Add(1)
				return
			}
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			feats := make([]float64, 4)
			for i := 0; i < perWorker; i++ {
				for j := range feats {
					feats[j] = rng.NormFloat64()
				}
				want := ref.Predict(feats)
				got, _, err := cl.Infer(feats)
				if err != nil {
					failures.Add(1)
					return
				}
				if got != want {
					mismatches.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d workers failed; want 0 failed requests across hot swaps", n)
	}
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("%d responses differ from the uncoalesced reference", n)
	}
	st := s.Stats()
	if st.CoalesceBatches == 0 {
		t.Fatal("no coalesced batches executed under 64-way load")
	}
	if st.CoalesceRows < uint64(workers*perWorker) {
		t.Fatalf("coalesced rows %d < requests %d", st.CoalesceRows, workers*perWorker)
	}
	if mean := st.CoalesceMeanBatch(); mean <= 1.2 {
		t.Fatalf("mean achieved batch %.2f; want cross-connection gathering (> 1.2)", mean)
	}
	// The achieved-batch histogram carries the same story for
	// `kml-ctl top` and MsgMetrics consumers.
	var histCount uint64
	for _, m := range s.Metrics().Metrics {
		if m.Name == "mserve_coalesce_batch" && m.Kind == MetricHistogram {
			histCount = m.Hist.Count
		}
	}
	if histCount != st.CoalesceBatches {
		t.Fatalf("mserve_coalesce_batch count %d != batches %d", histCount, st.CoalesceBatches)
	}
}

// TestCoalesceBatchInferRoutes drives small client-side batches (rows <
// CoalesceMax) through the shared gather concurrently and checks each
// connection's class vector against the uncoalesced reference, plus the
// inline fallback for a batch at the gather capacity.
func TestCoalesceBatchInferRoutes(t *testing.T) {
	s, sock := coalescedServer(t, Config{CoalesceMax: 16})
	art, err := s.Registry().ActiveArtifact()
	if err != nil {
		t.Fatalf("active artifact: %v", err)
	}

	const workers = 8
	const perWorker = 20
	const rows = 3
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial("unix", sock)
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			ref, err := art.Instantiate()
			if err != nil {
				errc <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(2000 + w)))
			flat := make([]float64, rows*4)
			want := make([]int, rows)
			for i := 0; i < perWorker; i++ {
				for j := range flat {
					flat[j] = rng.NormFloat64()
				}
				ref.PredictBatch(flat, rows, want)
				got, _, err := cl.BatchInfer(flat, rows, 4)
				if err != nil {
					errc <- err
					return
				}
				for r := 0; r < rows; r++ {
					if int(got[r]) != want[r] {
						errc <- errors.New("batch row class mismatch vs uncoalesced reference")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CoalesceRows < workers*perWorker*rows {
		t.Fatalf("coalesced rows %d; want all %d batch rows through the gather",
			st.CoalesceRows, workers*perWorker*rows)
	}

	// A batch at the gather capacity bypasses the coalescer (inline
	// fused path) and must still answer correctly.
	cl := dial(t, sock)
	ref, err := art.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	big := make([]float64, 16*4)
	rng := rand.New(rand.NewSource(3000))
	for j := range big {
		big[j] = rng.NormFloat64()
	}
	want := make([]int, 16)
	ref.PredictBatch(big, 16, want)
	before := s.Stats().CoalesceRows
	got, _, err := cl.BatchInfer(big, 16, 4)
	if err != nil {
		t.Fatalf("capacity-sized batch: %v", err)
	}
	for r := range want {
		if int(got[r]) != want[r] {
			t.Fatalf("row %d: class %d, want %d", r, got[r], want[r])
		}
	}
	if after := s.Stats().CoalesceRows; after != before {
		t.Fatalf("capacity-sized batch went through the coalescer (%d -> %d rows)", before, after)
	}
}

// TestCoalesceTraceAttribution pins the satellite requirement: requests
// sharing one fused gather still record one span tree EACH, joined under
// their own client-stamped TraceIDs (FrameVersion 2 propagation), with
// the achieved batch size stamped into each request's own StageInfer
// span. CoalesceMax clients with a never-expiring window make the batch
// fill deterministic: every request shares one batch of exactly max rows.
func TestCoalesceTraceAttribution(t *testing.T) {
	const max = 4
	s, sock := coalescedServer(t, Config{
		CoalesceWindow: 10 * time.Second, // fill, never expire
		CoalesceMax:    max,
		TraceCapacity:  16,
	})

	// One shared client arena: per-arena NextID keeps the four clients'
	// trace IDs distinct (separate arenas would all mint ID 1).
	arena := dtrace.NewArena(16)
	var wg sync.WaitGroup
	for i := 0; i < max; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial("unix", sock)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			cl.SetTimeout(5 * time.Second)
			cl.EnableTracing(arena)
			if _, _, err := cl.Infer([]float64{0.1 * float64(i), 0.2, 0.3, 0.4}); err != nil {
				t.Errorf("infer %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var ids []dtrace.TraceID
	for _, tr := range arena.Snapshot() {
		ids = append(ids, tr.ID)
	}
	if len(ids) != max {
		t.Fatalf("client arena holds %d traces for %d requests", len(ids), max)
	}

	byID := make(map[dtrace.TraceID]dtrace.Trace)
	for _, tr := range s.Traces() {
		byID[tr.ID] = tr
	}
	if len(byID) < max {
		t.Fatalf("server retained %d traces for %d coalesced requests; want one tree per request", len(byID), max)
	}
	for i, id := range ids {
		if uint64(id)&ClientTraceIDBit == 0 {
			t.Fatalf("client %d trace ID %#x lacks ClientTraceIDBit", i, id)
		}
		tr, ok := byID[id]
		if !ok {
			t.Fatalf("no server trace joined under client %d's ID %#x", i, id)
		}
		if !tr.Complete() {
			t.Fatalf("client %d server trace incomplete: %+v", i, tr)
		}
		wantStages := []dtrace.Stage{
			dtrace.StageDecision, dtrace.StageQueue, dtrace.StageParse,
			dtrace.StageQueue, dtrace.StageInfer, dtrace.StageEncode,
		}
		if int(tr.N) != len(wantStages) {
			t.Fatalf("client %d trace has %d spans, want %d", i, tr.N, len(wantStages))
		}
		var infer, parse, queue *dtrace.Span
		for si := range tr.Used() {
			sp := &tr.Spans[si]
			if sp.Stage != wantStages[si] {
				t.Fatalf("client %d span %d stage %s, want %s", i, si, sp.Stage, wantStages[si])
			}
			switch sp.Stage {
			case dtrace.StageInfer:
				infer = sp
			case dtrace.StageParse:
				parse = sp
			case dtrace.StageQueue:
				queue = sp // the last one: the gather wait
			}
		}
		version, batchRows := dtrace.UnpackInferAux(infer.Aux)
		if batchRows != max {
			t.Fatalf("client %d infer span batch size %d, want %d", i, batchRows, max)
		}
		if version != 1 {
			t.Fatalf("client %d infer span version %d, want 1", i, version)
		}
		// The gather wait is the request's second queue span: it starts
		// where the parse ended and ends where the infer span starts.
		if queue.Start != parse.End || queue.End != infer.Start {
			t.Fatalf("client %d gather span %d..%d, parse ends %d, infer starts %d; gather wait not attributed to queue",
				i, queue.Start, queue.End, parse.End, infer.Start)
		}
		if queue.Value != queue.End-queue.Start {
			t.Fatalf("client %d queue span value %d != duration %d", i, queue.Value, queue.End-queue.Start)
		}
	}
}

// TestCoalesceShapeSwapFailsGathered covers the one request-failing edge
// the coalescer has: a hot swap to a DIFFERENT input width lands between
// gather and execute, so the gathered rows no longer fit the deployed
// model. Those requests get a clean MsgError (connection stays usable),
// and the next request against the new shape succeeds.
func TestCoalesceShapeSwapFailsGathered(t *testing.T) {
	s, sock := coalescedServer(t, Config{
		CoalesceWindow: 300 * time.Millisecond,
		CoalesceMax:    8,
	})
	cl := dial(t, sock)

	done := make(chan error, 1)
	go func() {
		_, _, err := cl.Infer([]float64{1, 2, 3, 4})
		done <- err
	}()
	time.Sleep(60 * time.Millisecond) // let the gather open on the 4-wide shape
	if _, err := s.Deploy(KindNN, "wide", nnModelBytes(t, 7, 6)); err != nil {
		t.Fatalf("swap to 6-wide: %v", err)
	}
	err := <-done
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "model replaced during gather") {
		t.Fatalf("gathered request after shape swap: %v; want remote 'model replaced during gather'", err)
	}
	if class, _, err := cl.Infer([]float64{1, 2, 3, 4, 5, 6}); err != nil || class < 0 {
		t.Fatalf("6-wide infer after swap: class=%d err=%v", class, err)
	}
}

// TestCoalesceStatsSurface checks the wire-visible coalescer config and
// counters reach a client through the Stats view of MsgMetrics.
func TestCoalesceStatsSurface(t *testing.T) {
	_, sock := coalescedServer(t, Config{
		CoalesceWindow: 150 * time.Microsecond,
		CoalesceMax:    48,
	})
	cl := dial(t, sock)
	if _, _, err := cl.Infer([]float64{1, 2, 3, 4}); err != nil {
		t.Fatalf("infer: %v", err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.CoalesceWindowNS != 150_000 {
		t.Fatalf("CoalesceWindowNS = %d, want 150000", st.CoalesceWindowNS)
	}
	if st.CoalesceMaxRows != 48 {
		t.Fatalf("CoalesceMaxRows = %d, want 48", st.CoalesceMaxRows)
	}
	if st.CoalesceBatches == 0 || st.CoalesceRows == 0 {
		t.Fatalf("coalesce counters empty after a served request: %+v", st)
	}
	if mean := st.CoalesceMeanBatch(); mean < 1 {
		t.Fatalf("mean batch %.2f < 1", mean)
	}
}

// TestCoalesceAllocFree pins the tentpole's steady-state allocation
// budget: once a connection's waiter, the pooled gather arena, and the
// instance scratch are warm, a coalesced request must not allocate —
// gather, fused forward, demux, and the per-request span tree all run
// over pooled memory.
func TestCoalesceAllocFree(t *testing.T) {
	s, _ := startServer(t, Config{
		CoalesceWindow: 50 * time.Microsecond,
		CoalesceMax:    8,
	})
	if _, err := s.Deploy(KindNN, "m", nnModelBytes(t, 3, 4)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	feats := make([]float64, 4)
	for i := range feats {
		feats[i] = rng.NormFloat64()
	}
	single := AppendInferReq(nil, 0, feats)
	sc := &srvConn{s: s}
	if typ, _ := s.infer(sc, MsgInfer, single); typ != MsgInfer {
		t.Fatal("warmup single-row coalesced infer failed")
	}
	if a := testing.AllocsPerRun(100, func() {
		if typ, _ := s.infer(sc, MsgInfer, single); typ != MsgInfer {
			t.Fatal("coalesced infer failed")
		}
	}); a != 0 {
		t.Errorf("coalesced single-row request allocates %.1f/run, want 0", a)
	}

	// Small client batches through the same gather stay alloc-free too.
	flat := make([]float64, 4*4)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	batch := AppendBatchInferReq(nil, 0, flat, 4, 4)
	if typ, _ := s.infer(sc, MsgBatchInfer, batch); typ != MsgBatchInfer {
		t.Fatal("warmup coalesced batch failed")
	}
	if a := testing.AllocsPerRun(100, func() {
		if typ, _ := s.infer(sc, MsgBatchInfer, batch); typ != MsgBatchInfer {
			t.Fatal("coalesced batch infer failed")
		}
	}); a != 0 {
		t.Errorf("coalesced batch request allocates %.1f/run, want 0", a)
	}
	if st := s.Stats(); st.CoalesceBatches == 0 {
		t.Fatal("alloc gate never exercised the coalescer")
	}
}

// BenchmarkE11_CoalescedServe measures the coalesced serving loop end to
// end: a 100 µs gather window on a unix socket, 32 concurrent connections
// each streaming single-row Infer requests, every gathered batch executed
// as one fused PredictBatch. ns/op is wall-clock per served row across the
// whole fleet, the number EXPERIMENTS.md E11 compares against the
// uncoalesced serving hop; TestCoalesceAllocFree keeps the path at 0 allocs.
func BenchmarkE11_CoalescedServe(b *testing.B) {
	const fleet = 32
	_, sock := coalescedServer(b, Config{
		MaxConns:       64,
		CoalesceWindow: 100 * time.Microsecond,
		CoalesceMax:    fleet, // full batches execute without waiting out the window
	})
	clients := make([]*Client, fleet)
	for c := range clients {
		cl, err := Dial("unix", sock)
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		if _, _, err := cl.Infer([]float64{0.1, 0.2, 0.3, 0.4}); err != nil {
			b.Fatal(err)
		}
		clients[c] = cl
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c, cl := range clients {
		n := b.N / fleet
		if c < b.N%fleet {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			feats := []float64{0.3, 0.1, 0.7, 0.2}
			for i := 0; i < n; i++ {
				if _, _, err := cl.Infer(feats); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCoalesceSubmitRefitsAfterFlush is the regression for the batch
// overflow (`slice bounds out of range [:14] with capacity 8`). A submitter
// whose request doesn't fit the open batch detaches and executes it with
// the gather unlocked; a racing submitter can open a fresh near-full batch
// in that gap, and the first must re-test the fit instead of gathering
// into whatever it finds. The interleaving is forced, not hunted: the
// first batch's waiter has an unbuffered done channel, which holds its
// executor inside runBatch until the test lets go.
func TestCoalesceSubmitRefitsAfterFlush(t *testing.T) {
	r, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{
		Registry:       r,
		CoalesceWindow: 100 * time.Millisecond,
		CoalesceMax:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy(KindNN, "m", nnModelBytes(t, 42, 4)); err != nil {
		t.Fatal(err)
	}
	const nfeat = 4
	c := s.coal
	// awaitCur polls the open batch until it holds rows rows (0: no open
	// batch).
	awaitCur := func(rows int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			c.mu.Lock()
			got := 0
			if c.cur != nil {
				got = c.cur.rows
			}
			c.mu.Unlock()
			if got == rows {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("open batch holds %d rows, want %d", got, rows)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	// An open 2-row batch whose waiter blocks its executor.
	held := &coalWaiter{done: make(chan struct{}), classes: make([]uint16, 2)}
	c.mu.Lock()
	b := c.get(nfeat)
	b.gatherRows(make([]float64, 2*nfeat))
	b.entries = append(b.entries, gatherEntry{w: held, rows: 2})
	b.rows = 2
	c.cur = b
	c.mu.Unlock()

	var wg sync.WaitGroup
	waiters := [2]*coalWaiter{}
	submit := func(i int) {
		w := &coalWaiter{classes: make([]uint16, 7)}
		waiters[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.submit(s, w, make([]float64, 7*nfeat), 7, nfeat)
		}()
	}
	submit(0) // 2+7 > 8: detaches the held batch, blocks executing it
	awaitCur(0)
	submit(1) // no open batch: opens a fresh one with 7 rows and parks
	awaitCur(7)
	<-held.done // first submitter re-locks and finds 7 rows it can't join
	wg.Wait()
	for i, w := range waiters {
		if w.failed || w.batchRows != 7 {
			t.Errorf("submitter %d: failed=%v batchRows=%d, want its own 7-row batch", i, w.failed, w.batchRows)
		}
	}
}
