package main

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/mserve"
)

// emptyServer starts an in-process server with no model deployed, so every
// inference request it receives fails, and returns a client connected to it.
func emptyServer(t *testing.T) *mserve.Client {
	t.Helper()
	reg, err := mserve.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("open registry: %v", err)
	}
	s, err := mserve.NewServer(mserve.Config{Registry: reg})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "s.sock"))
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Shutdown(2 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	cl, err := mserve.Dial("unix", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	cl.SetTimeout(5 * time.Second)
	return cl
}

func TestRunStepCountsWarmupErrors(t *testing.T) {
	cl := emptyServer(t)
	// Fixed arrivals every 10 ms: the 50 ms warmup holds all five of them.
	res := runStep([]*mserve.Client{cl}, 100, stepConfig{
		duration: time.Nanosecond, warmup: 50 * time.Millisecond,
		dist: "fixed", batch: 1, seed: 1, inDim: 4,
	})
	if res.errors != 5 {
		t.Fatalf("errors = %d, want the 5 failed warmup requests", res.errors)
	}
	if res.err() == nil {
		t.Fatal("a step whose every request failed is not reported as a failure")
	}
}

func TestRunStepWithNothingCompletedFails(t *testing.T) {
	cl := emptyServer(t)
	// Half a request per second schedules none in 200 ms.
	res := runStep([]*mserve.Client{cl}, 0.5, stepConfig{
		duration: 200 * time.Millisecond,
		dist:     "fixed", batch: 1, seed: 1, inDim: 4,
	})
	if res.errors != 0 || len(res.lats) != 0 {
		t.Fatalf("errors=%d completed=%d, want an empty step", res.errors, len(res.lats))
	}
	if res.err() == nil {
		t.Fatal("a step that completed no request is not reported as a failure")
	}
}
