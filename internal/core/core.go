// Package core is the KML framework proper: it ties together the ML library
// (nn, dtree), the lock-free circular buffer, and the asynchronous training
// thread, and exposes the programming model of the paper's Table 1 API —
// create a model, collect data on the hot path, process/normalize/train
// asynchronously, switch between training and inference modes, and
// save/load models for deployment.
//
// The contract mirrors §3.2 of the paper: data collection happens inline on
// latency-sensitive paths and must cost nanoseconds (a ring-buffer push);
// normalization and training run on one dedicated asynchronous goroutine —
// the "training thread" — because the prototype "supports only chain
// computation graphs that have to be processed serially".
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ringbuf"
	"repro/internal/telemetry"
)

// Mode selects what the pipeline does with collected data. Users "can
// switch between training and inference modes as needed to adapt
// automatically to ever-changing conditions" (§3.3).
type Mode int32

// Pipeline modes.
const (
	// ModeOff discards collected samples.
	ModeOff Mode = iota
	// ModeTraining routes samples to the handler for training.
	ModeTraining
	// ModeInference routes samples to the handler for feature extraction
	// and prediction.
	ModeInference
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeTraining:
		return "training"
	case ModeInference:
		return "inference"
	default:
		return fmt.Sprintf("mode(%d)", int32(m))
	}
}

// Classifier is a deployable KML model: anything that maps a feature vector
// to a class. Both model families the paper supports satisfy it (a neural
// network via a small adapter owning its PredictBuffer, and a decision
// tree directly).
type Classifier interface {
	// Predict returns the class index for one feature vector.
	Predict(features []float64) int
	// Name identifies the model family, e.g. "readahead-nn".
	Name() string
}

// BatchClassifier is implemented by classifiers with a fused batched
// inference path: PredictBatch classifies rows samples (row-major
// rows×features) in one pass, writing class indices to classes[:rows].
// Implementations must produce exactly the same class per sample as rows
// individual Predict calls.
type BatchClassifier interface {
	Classifier
	PredictBatch(features []float64, rows int, classes []int)
}

// Cloneable is implemented by classifiers whose Predict mutates internal
// scratch (network forward buffers) and that can produce an independent
// copy safe for use on another goroutine. The parallel experiment harness
// clones a model per worker; stateless classifiers (decision trees) may
// return a cheap wrapper sharing the immutable model.
type Cloneable interface {
	CloneClassifier() Classifier
}

// Config parameterizes a Pipeline.
type Config struct {
	// BufferCapacity sizes the lock-free ring (§3.1: "The circular buffer's
	// size is configurable to cap memory usage"). Rounded to a power of two;
	// 0 means 4096 entries.
	BufferCapacity int
	// BatchSize is the maximum number of samples handed to the handler per
	// call, and the ring occupancy at which Collect wakes the handler
	// thread; 0 means 256. It is capped at the ring's capacity.
	BatchSize int
	// Poll is the handler thread's poll interval, which bounds how long
	// fewer than BatchSize samples wait; 0 means 1ms.
	Poll time.Duration
}

func (c Config) withDefaults() Config {
	if c.BufferCapacity == 0 {
		c.BufferCapacity = 4096
	}
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	if c.Poll == 0 {
		c.Poll = time.Millisecond
	}
	return c
}

// Handler consumes a drained batch of samples under the given mode.
// It runs on the pipeline's training goroutine, so it may freely use
// floating point and allocate — exactly the work §3.2 offloads off the
// I/O path. batch is the pipeline's drain scratch: it is valid only for
// the call, and the next drain overwrites it.
type Handler[S any] func(batch []S, mode Mode)

// Pipeline is the KML data path: lock-free collection feeding one
// asynchronous processing goroutine.
type Pipeline[S any] struct {
	cfg  Config
	ring *ringbuf.Ring[S]
	mode atomic.Int32

	handler Handler[S]
	// batch is the one drain scratch, BatchSize long. The training thread
	// and Flush both drain into it; the single-consumer contract already
	// makes them mutually exclusive.
	batch   []S
	wake    chan struct{}
	stop    chan struct{}
	done    chan struct{}
	started atomic.Bool

	collected atomic.Uint64
	processed atomic.Uint64

	stopOnce sync.Once
}

// NewPipeline builds a pipeline around handler. The pipeline starts in
// ModeOff; call Start and SetMode to begin processing.
func NewPipeline[S any](cfg Config, handler Handler[S]) (*Pipeline[S], error) {
	if handler == nil {
		return nil, errors.New("core: nil handler")
	}
	cfg = cfg.withDefaults()
	ring := ringbuf.New[S](cfg.BufferCapacity)
	// A drain never yields more than the ring holds, and Collect's wake
	// threshold must be reachable.
	cfg.BatchSize = min(cfg.BatchSize, ring.Cap())
	p := &Pipeline[S]{
		cfg:     cfg,
		ring:    ring,
		handler: handler,
		batch:   make([]S, cfg.BatchSize),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	return p, nil
}

// Collect pushes one sample from the hot path. It never blocks and never
// allocates; a full ring drops the sample (counted in Dropped). Samples
// collected in ModeOff are still buffered so a mode switch does not lose
// the window in flight; the handler sees the mode at drain time.
//
// Collect wakes the training thread only when its push brings the ring to
// BatchSize samples. A trickle below that waits for the next Poll tick, so
// it reaches the handler at most Poll late; a producer that collects one
// sample per request no longer pays a goroutine switch per request.
//
//kml:hotpath
func (p *Pipeline[S]) Collect(s S) bool {
	ok := p.ring.TryPush(s)
	if ok {
		p.collected.Add(1)
		if p.ring.Len() == p.cfg.BatchSize {
			select {
			case p.wake <- struct{}{}:
			default:
			}
		}
	}
	return ok
}

// Start launches the asynchronous training thread. It is an error to start
// a pipeline twice.
func (p *Pipeline[S]) Start() error {
	if !p.started.CompareAndSwap(false, true) {
		return errors.New("core: pipeline already started")
	}
	go p.run()
	return nil
}

func (p *Pipeline[S]) run() {
	defer close(p.done)
	ticker := time.NewTicker(p.cfg.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			p.drain() // final drain so Stop is lossless
			return
		case <-p.wake:
			p.drain()
		case <-ticker.C:
			p.drain()
		}
	}
}

func (p *Pipeline[S]) drain() {
	batch := p.batch
	for {
		n := p.ring.PopBatch(batch)
		if n == 0 {
			return
		}
		if mode := p.Mode(); mode != ModeOff {
			p.handler(batch[:n], mode)
		}
		p.processed.Add(uint64(n))
	}
}

// Stop terminates the training thread after a final drain and waits for
// completion. A pipeline cannot be restarted.
// Stop is idempotent and safe to call from multiple goroutines: every
// caller returns only after the final drain has completed, so samples
// accepted by Collect before the producers quiesced are all processed.
func (p *Pipeline[S]) Stop() {
	if !p.started.Load() {
		return
	}
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// Flush synchronously drains the ring on the caller's goroutine. It is
// intended for deterministic simulation (virtual time) and tests, where the
// asynchronous thread's scheduling would introduce nondeterminism. Do not
// call it concurrently with a started pipeline: it violates the
// single-consumer contract of the ring, and both sides drain into the
// pipeline's one scratch batch. Flush allocates nothing, and on an empty
// ring it is two atomic loads — cheap enough to call once per simulated
// operation.
func (p *Pipeline[S]) Flush() {
	if p.ring.Len() == 0 {
		return
	}
	p.drain()
}

// SetMode switches the pipeline between off, training and inference.
func (p *Pipeline[S]) SetMode(m Mode) { p.mode.Store(int32(m)) }

// Mode returns the current mode.
func (p *Pipeline[S]) Mode() Mode { return Mode(p.mode.Load()) }

// Collected returns the number of samples accepted by Collect.
func (p *Pipeline[S]) Collected() uint64 { return p.collected.Load() }

// Dropped returns the number of samples lost to a full ring.
func (p *Pipeline[S]) Dropped() uint64 { return p.ring.Dropped() }

// BufferLen returns the instantaneous ring occupancy.
func (p *Pipeline[S]) BufferLen() int { return p.ring.Len() }

// RegisterMetrics exposes the pipeline's counters and ring state as
// snapshot-time gauges under prefix: <prefix>_collected, _processed,
// _dropped (ring backpressure), _buffer_len (occupancy) and
// _buffer_cap. The callbacks read the same atomics the hot path already
// maintains, so exposure adds zero cost per event.
func (p *Pipeline[S]) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.Func(prefix+"_collected", func() int64 { return int64(p.collected.Load()) })
	reg.Func(prefix+"_processed", func() int64 { return int64(p.processed.Load()) })
	reg.Func(prefix+"_dropped", func() int64 { return int64(p.ring.Dropped()) })
	reg.Func(prefix+"_buffer_len", func() int64 { return int64(p.ring.Len()) })
	reg.Func(prefix+"_buffer_cap", func() int64 { return int64(p.ring.Cap()) })
}
