package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/readahead"
	"repro/internal/workload"
)

// poolVectors is the size of the seeded feature pool every serving request
// and every inference loop draws from.
const poolVectors = 4096

// batchRows is the batch shape of serve_batch256 and of the *_batch256_*
// layer loops.
const batchRows = 256

// sink keeps the compiler from discarding the calls a layer loop times.
var sink int

// run is what one invocation carries around: its options, the metrics it
// has measured so far, and (traced runs only) the span recorder.
type run struct {
	opt  options
	rep  *report
	rec  *recorder // nil when untraced
	root int       // the tune.run / serve.run span
}

// quartile returns the first (p = 0.25) or third (p = 0.75) quartile of xs
// as Python's statistics.quantiles(xs, n=4) computes it.
func quartile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)+1)
	lo := int(pos)
	switch {
	case lo < 1:
		return s[0]
	case lo >= len(s):
		return s[len(s)-1]
	}
	return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
}

// fastest is how every repeated timing is summarized: its first quartile.
// What the host does to a sandbox (a neighbour on the same core or memory
// channel, for seconds at a time) only ever adds time, so the fast quarter
// of the samples tracks the program and the rest tracks the neighbours; a
// median moves with them by tens of percent.
func fastest(xs []float64) float64 { return quartile(xs, 0.25) }

// layer times one layer from outside: it calls round, which reports how
// many calls into the layer it made and how long they took, until layerMin
// of wall time has passed, and records the fastest quartile over rounds of
// ns per call under metric. In a traced run the whole loop is one
// layer.<metric> span.
func (r *run) layer(metric string, round func() (calls int, busy time.Duration)) float64 {
	round() // grow lazily sized buffers and warm caches before timing
	id := r.rec.begin("layer."+metric, r.root)
	var perCall []float64
	for start := time.Now(); time.Since(start) < r.opt.layerMin; {
		calls, busy := round()
		perCall = append(perCall, float64(busy.Nanoseconds())/float64(calls))
	}
	r.rec.end(id)
	ns := fastest(perCall)
	r.rep.set(metric, ns)
	return ns
}

// timed adapts a round that is busy from start to end.
func timed(calls int, fn func()) func() (int, time.Duration) {
	return func() (int, time.Duration) {
		start := time.Now()
		fn()
		return calls, time.Since(start)
	}
}

// featurePool returns poolVectors model inputs drawn from seed. The model
// sees Z-scores clipped to ±3, so that is the range drawn from.
func featurePool(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]float64, poolVectors*features.Count)
	for i := range pool {
		pool[i] = rng.Float64()*6 - 3
	}
	return pool
}

func poolRow(pool []float64, i int) []float64 {
	i %= poolVectors
	return pool[i*features.Count : (i+1)*features.Count]
}

func poolBlock(pool []float64, i int) []float64 {
	i %= poolVectors / batchRows
	return pool[i*batchRows*features.Count : (i+1)*batchRows*features.Count]
}

// nnLayers times the model itself in the paper's three arithmetic modes,
// one row at a time and 256 rows at a time, and one training step.
func (r *run) nnLayers(net *nn.Network, pool []float64) error {
	f32, err := nn.CompileFloat32(net)
	if err != nil {
		return err
	}
	fixed, err := nn.CompileFixed(net)
	if err != nil {
		return err
	}
	var buf nn.PredictBuffer
	classes := make([]int, batchRows)
	const rows = 1024
	r.layer("nn.predict_ns", timed(rows, func() {
		for i := 0; i < rows; i++ {
			sink += net.Predict(poolRow(pool, i), &buf)
		}
	}))
	r.layer("nn.predict_f32_ns", timed(rows, func() {
		for i := 0; i < rows; i++ {
			sink += f32.Predict(poolRow(pool, i))
		}
	}))
	r.layer("nn.predict_fixed_ns", timed(rows, func() {
		for i := 0; i < rows; i++ {
			sink += fixed.Predict(poolRow(pool, i))
		}
	}))
	const blocks = poolVectors / batchRows
	r.layer("nn.predict_batch256_ns_per_row", timed(blocks*batchRows, func() {
		for i := 0; i < blocks; i++ {
			net.PredictBatch(poolBlock(pool, i), batchRows, classes, &buf)
		}
	}))
	r.layer("nn.predict_batch256_f32_ns_per_row", timed(blocks*batchRows, func() {
		for i := 0; i < blocks; i++ {
			f32.InferBatch(poolBlock(pool, i), batchRows, classes)
		}
	}))
	r.layer("nn.predict_batch256_fixed_ns_per_row", timed(blocks*batchRows, func() {
		for i := 0; i < blocks; i++ {
			fixed.InferBatch(poolBlock(pool, i), batchRows, classes)
		}
	}))

	// One epoch over 256 seeded samples is 16 minibatch steps of 16.
	rng := rand.New(rand.NewSource(r.opt.seed))
	x := make([]features.Vector, 256)
	y := make([]int, len(x))
	for i := range x {
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = rng.Intn(workload.NumClasses)
	}
	model := readahead.NewModel(r.opt.seed)
	cfg := readahead.TrainConfig{Epochs: 1, Batch: 16, Seed: r.opt.seed}
	r.layer("nn.train_step_ns", timed(len(x)/cfg.Batch, func() {
		readahead.TrainModel(model, x, y, cfg)
	}))
	return nil
}

// usage is a snapshot of what the process has consumed.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
	rssMB   float64
}

func readUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
		rssMB:   float64(ru.Maxrss) / 1024, // Linux reports KiB
	}, nil
}

// setProcess records what the measured phase between before and after cost
// the process, per operation.
func (r *run) setProcess(before, after usage, ops uint64) {
	r.rep.set("process.cpu_us_per_op", float64((after.cpu-before.cpu).Nanoseconds())/1e3/float64(ops))
	r.rep.set("process.allocs_per_op", float64(after.mallocs-before.mallocs)/float64(ops))
	r.rep.set("process.gc_cycles", float64(after.gcs-before.gcs))
	r.rep.set("process.peak_rss_mb", after.rssMB)
}
