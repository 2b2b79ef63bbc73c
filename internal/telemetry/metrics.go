// Package telemetry is the kernel-portable observability layer: the
// always-on metrics the paper's overhead claims (§5: 49 ns per-event
// collection, 21 µs inference, 51 µs training iteration) are defended
// with at runtime, not just in offline benchmarks.
//
// The package is split along the same user/kernel seam as the rest of
// the framework. This file holds the hot-path primitives — Counter,
// Gauge, and a fixed-shape log₂-bucket Histogram — and is kernelspace:
// integer-only, allocation-free, lock-free (sync/atomic and math/bits
// are the whole import list), because instrumentation that costs more
// than the event it measures is worse than none. Everything that may
// allocate or use floating point (snapshots, quantile estimation, the
// registry, text exposition, the HTTP debug listener) lives in the
// sibling userspace files.
//
//kml:kernelspace
package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
//
//kml:hotpath
func (c *Counter) Add(n uint64) {
	c.v.Add(n)
}

// Inc increments the counter by one.
//
//kml:hotpath
func (c *Counter) Inc() {
	c.v.Add(1)
}

// Load returns the current count.
//
//kml:hotpath
func (c *Counter) Load() uint64 {
	return c.v.Load()
}

// Gauge is an instantaneous signed level (buffer occupancy, live bytes).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's current level.
//
//kml:hotpath
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
}

// Load returns the current level.
//
//kml:hotpath
func (g *Gauge) Load() int64 {
	return g.v.Load()
}

// NumBuckets is the fixed bucket count of every Histogram: one bucket
// per power of two of an int64 nanosecond value. Bucket 0 holds exactly
// the value 0; bucket i (i ≥ 1) holds values in [2^(i-1), 2^i - 1];
// bucket 63 is the overflow bucket, absorbing everything up to the
// int64 maximum.
const NumBuckets = 64

// Histogram is a fixed-shape latency histogram over non-negative
// integer nanoseconds. Observation is one bit-length computation and
// two atomic adds — no floats, no allocation, no locks — so it is safe
// on the paper's 49 ns collection path. All distribution math (quantile
// estimation, means) happens at snapshot time in userspace code.
// The zero value is ready to use.
type Histogram struct {
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// Observe records one latency in nanoseconds. Negative values clamp to
// zero (a backwards clock must not corrupt the shape).
//
//kml:hotpath
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)&(NumBuckets-1)].Add(1)
}

// LoadBuckets copies the current bucket counts into dst. Each bucket is
// loaded atomically one at a time — observations racing with the copy
// land wholly in or wholly out of it — and nothing is allocated, so the
// time-series recorder (internal/telemetry/tsrec) can snapshot on its
// fixed-interval tick without disturbing the paths it measures.
//
//kml:hotpath
func (h *Histogram) LoadBuckets(dst *[NumBuckets]uint64) {
	for i := range h.buckets {
		dst[i] = h.buckets[i].Load()
	}
}

// BucketLower returns the smallest value that lands in bucket i.
func BucketLower(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// BucketUpper returns the largest value that lands in bucket i.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		return int64(^uint64(0) >> 1) // math.MaxInt64 without importing math
	}
	return (1 << i) - 1
}
