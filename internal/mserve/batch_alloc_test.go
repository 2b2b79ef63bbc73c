package mserve

import (
	"math/rand"
	"testing"
)

// TestBatchInferAllocFree is the satellite alloc gate for the serving
// loop: once a connection's buffers and the instance's batch scratch have
// reached their high-water mark, handling a batched inference request must
// not allocate — the request path is decode → fused batched forward →
// encode, all over pooled memory.
func TestBatchInferAllocFree(t *testing.T) {
	s, _ := startServer(t, Config{})
	if _, err := s.Deploy(KindNN, "m", nnModelBytes(t, 3, 4)); err != nil {
		t.Fatal(err)
	}
	const rows, nfeat = 64, 4
	rng := rand.New(rand.NewSource(4))
	flat := make([]float64, rows*nfeat)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	payload := AppendBatchInferReq(nil, 0, flat, rows, nfeat)
	sc := &srvConn{s: s}
	warmTyp, _ := s.infer(sc, MsgBatchInfer, payload)
	if warmTyp != MsgBatchInfer {
		t.Fatalf("warmup response type %d", warmTyp)
	}
	if a := testing.AllocsPerRun(100, func() {
		if typ, _ := s.infer(sc, MsgBatchInfer, payload); typ != MsgBatchInfer {
			t.Fatal("batch infer failed")
		}
	}); a != 0 {
		t.Errorf("batched inference request allocates %.1f/run, want 0", a)
	}
	// Single-row requests over the same warmed connection stay alloc-free
	// too (the batch path at rows=1).
	one := AppendBatchInferReq(nil, 0, flat[:nfeat], 1, nfeat)
	s.infer(sc, MsgBatchInfer, one)
	if a := testing.AllocsPerRun(100, func() { s.infer(sc, MsgBatchInfer, one) }); a != 0 {
		t.Errorf("rows=1 batched request allocates %.1f/run, want 0", a)
	}
}
