package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests exercise the pipeline's lifecycle contract under
// concurrency — they exist to run in CI's -race job. The serving layer
// (internal/mserve) shuts a shared pipeline down from a signal handler
// while connection goroutines are still in Collect and operators flip
// modes at will, so the exact guarantees pinned here are load-bearing:
// Stop is safe to race with itself, with Collect, and with SetMode, and
// every sample accepted before producers quiesced is processed. The ring
// takes exactly one producer at a time, so where several goroutines
// collect they share a mutex, as mserve.Server.collect does.

// TestPipelineConcurrentCollectModeFlipStop runs producers and a mode
// flipper against a live pipeline, quiesces the producers, and asserts
// the final drain in Stop processes every accepted sample regardless of
// the mode churn in between.
func TestPipelineConcurrentCollectModeFlipStop(t *testing.T) {
	var handled atomic.Uint64
	p, err := NewPipeline[int](Config{BufferCapacity: 1 << 14}, func(batch []int, mode Mode) {
		handled.Add(uint64(len(batch)))
	})
	if err != nil {
		t.Fatalf("new pipeline: %v", err)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	p.SetMode(ModeTraining)

	const (
		producers   = 4
		perProducer = 5000
	)
	var accepted atomic.Uint64
	var collectMu sync.Mutex
	var wg sync.WaitGroup
	stopFlip := make(chan struct{})
	wg.Add(1)
	go func() { // mode flipper: training <-> inference, never off
		defer wg.Done()
		m := ModeInference
		for {
			select {
			case <-stopFlip:
				return
			default:
			}
			p.SetMode(m)
			if m == ModeInference {
				m = ModeTraining
			} else {
				m = ModeInference
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	var prod sync.WaitGroup
	for i := 0; i < producers; i++ {
		prod.Add(1)
		go func(seed int) {
			defer prod.Done()
			for j := 0; j < perProducer; j++ {
				collectMu.Lock()
				ok := p.Collect(seed*perProducer + j)
				collectMu.Unlock()
				if ok {
					accepted.Add(1)
				}
			}
		}(i)
	}
	prod.Wait() // producers quiesce before Stop, per the Stop contract
	close(stopFlip)
	wg.Wait()
	p.Stop()

	if got, want := p.Collected(), accepted.Load(); got != want {
		t.Fatalf("Collected = %d, accepted = %d", got, want)
	}
	if got := p.processed.Load(); got != accepted.Load() {
		t.Fatalf("Stop lost samples: processed %d of %d accepted", got, accepted.Load())
	}
	// The flipper never selected ModeOff, so the handler saw every sample.
	if got := handled.Load(); got != accepted.Load() {
		t.Fatalf("handler saw %d of %d samples", got, accepted.Load())
	}
	if p.Dropped()+accepted.Load() != uint64(producers*perProducer) {
		t.Fatalf("accounting: accepted=%d dropped=%d", accepted.Load(), p.Dropped())
	}
}

// TestPipelineConcurrentStop races many Stop calls (the double-close
// hazard) and asserts every caller blocks until the final drain is done.
func TestPipelineConcurrentStop(t *testing.T) {
	var handled atomic.Uint64
	p, err := NewPipeline[int](Config{}, func(batch []int, mode Mode) {
		handled.Add(uint64(len(batch)))
	})
	if err != nil {
		t.Fatalf("new pipeline: %v", err)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	p.SetMode(ModeTraining)
	for i := 0; i < 100; i++ {
		p.Collect(i)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Stop()
			// Stop returned, so the final drain has completed for THIS
			// caller too, not just the one that won the close race.
			if got := p.processed.Load(); got != 100 {
				t.Errorf("Stop returned with %d/100 processed", got)
			}
		}()
	}
	wg.Wait()
	if handled.Load() != 100 {
		t.Fatalf("handler saw %d/100", handled.Load())
	}
	// Stop after Stop, and Flush after Stop, stay safe: the consumer
	// goroutine is gone, so the single-consumer contract holds again.
	p.Stop()
	p.Flush()
	p.Flush()
}

// TestPipelineStopBeforeStart is a no-op, not a hang or a panic.
func TestPipelineStopBeforeStart(t *testing.T) {
	p, err := NewPipeline[int](Config{}, func([]int, Mode) {})
	if err != nil {
		t.Fatalf("new pipeline: %v", err)
	}
	done := make(chan struct{})
	go func() { p.Stop(); p.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop on unstarted pipeline hung")
	}
}

// TestPipelineCollectDuringStop races in-flight producers with Stop.
// Samples that lose the race may land in the ring after the final drain;
// the invariant is weaker but still exact: nothing is lost, anything
// unprocessed is still sitting in the buffer, and the books balance.
func TestPipelineCollectDuringStop(t *testing.T) {
	p, err := NewPipeline[int](Config{BufferCapacity: 1 << 14}, func([]int, Mode) {})
	if err != nil {
		t.Fatalf("new pipeline: %v", err)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	p.SetMode(ModeTraining)

	var collectMu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				collectMu.Lock()
				p.Collect(j)
				collectMu.Unlock()
			}
		}()
	}
	p.Stop() // concurrent with the producers, deliberately
	wg.Wait()

	if got, want := p.Collected()-p.processed.Load(), uint64(p.BufferLen()); got != want {
		t.Fatalf("unprocessed %d != buffered %d", got, want)
	}
}
