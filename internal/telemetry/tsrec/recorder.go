// The recorder: resolves the watched series against a registry once at
// construction, then on every Tick fills a scratch Point and records it
// into the repo's one keep-latest ring (telemetry.FlightRecorder, whose
// Cursor/ReadNewer/Len/Cap the Recorder exposes). Tick is alloc-free and
// integer-only — the whole reason this layer exists is to record the
// serving path without perturbing it — and a mutex is acceptable: the
// tick fires once per interval, never per event.
package tsrec

import (
	"errors"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// MaxRingCapacity bounds Config.Capacity (the ring's own limit).
const MaxRingCapacity = telemetry.MaxFlightCapacity

// Config parameterizes a Recorder.
type Config struct {
	// Interval is the capture period; 0 means 1s.
	Interval time.Duration
	// Capacity is how many points the ring retains (rounded up to a
	// power of two); 0 means 256.
	Capacity int
	// Counters and Hists name the registry series to watch, in the
	// order their columns appear in every Point. Names are resolved
	// with Registry.Counter/Registry.Histogram — creation-on-first-use,
	// so a series may be named before the subsystem that feeds it
	// registers (the readahead tuner attaching to a serving registry) —
	// and a name already registered as another kind panics, exactly as
	// direct registration would.
	Counters []string
	Hists    []string
}

// Recorder captures one registry's series on a fixed interval.
type Recorder struct {
	*telemetry.FlightRecorder[Point]

	intervalNS   int64
	counterNames []string
	histNames    []string
	counters     []*telemetry.Counter
	hists        []*telemetry.Histogram

	mu           sync.Mutex
	prevCounters [MaxCounters]uint64
	prevBuckets  [MaxHists][telemetry.NumBuckets]uint64
	cur          [telemetry.NumBuckets]uint64 // tick scratch: loaded buckets
	delta        [telemetry.NumBuckets]uint64 // tick scratch: interval deltas
	point        Point                        // tick scratch: the point being filled

	stop chan struct{}
	done chan struct{}
}

// New builds a recorder over reg. The baseline for the first interval is
// the registry's state at construction time.
func New(reg *telemetry.Registry, cfg Config) (*Recorder, error) {
	if reg == nil {
		return nil, errors.New("tsrec: nil registry")
	}
	if len(cfg.Counters) > MaxCounters {
		return nil, errors.New("tsrec: too many counters")
	}
	if len(cfg.Hists) > MaxHists {
		return nil, errors.New("tsrec: too many histograms")
	}
	if cfg.Interval < 0 || cfg.Capacity < 0 || cfg.Capacity > MaxRingCapacity {
		return nil, errors.New("tsrec: config out of range")
	}
	if cfg.Interval == 0 {
		cfg.Interval = time.Second
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 256
	}
	r := &Recorder{
		FlightRecorder: telemetry.NewFlightRecorder[Point](cfg.Capacity),
		intervalNS:     cfg.Interval.Nanoseconds(),
		counterNames:   append([]string(nil), cfg.Counters...),
		histNames:      append([]string(nil), cfg.Hists...),
		counters:       make([]*telemetry.Counter, len(cfg.Counters)),
		hists:          make([]*telemetry.Histogram, len(cfg.Hists)),
	}
	for i, name := range r.counterNames {
		r.counters[i] = reg.Counter(name)
		r.prevCounters[i] = r.counters[i].Load()
	}
	for i, name := range r.histNames {
		r.hists[i] = reg.Histogram(name)
		r.hists[i].LoadBuckets(&r.prevBuckets[i])
	}
	return r, nil
}

// Interval returns the configured capture period in nanoseconds.
func (r *Recorder) Interval() int64 { return r.intervalNS }

// CounterNames returns the watched counter names in column order. The
// slice is owned by the recorder and must not be modified.
func (r *Recorder) CounterNames() []string { return r.counterNames }

// HistNames returns the watched histogram names in column order. The
// slice is owned by the recorder and must not be modified.
func (r *Recorder) HistNames() []string { return r.histNames }

// Tick records one point: every watched counter's delta and every
// watched histogram's interval count and p50/p95/p99 since the previous
// tick, stamped nowNanos. It allocates nothing and uses no floating
// point; the overhead gate in overhead_test.go pins both.
//
//kml:hotpath
func (r *Recorder) Tick(nowNanos int64) {
	r.mu.Lock()
	slot := &r.point
	slot.TimeNanos = nowNanos
	for i := 0; i < len(r.counters); i++ {
		v := r.counters[i].Load()
		slot.Deltas[i] = v - r.prevCounters[i]
		r.prevCounters[i] = v
	}
	for i := 0; i < len(r.hists); i++ {
		r.hists[i].LoadBuckets(&r.cur)
		prev := &r.prevBuckets[i]
		var count uint64
		for b := 0; b < telemetry.NumBuckets; b++ {
			d := r.cur[b] - prev[b]
			r.delta[b] = d
			count += d
			prev[b] = r.cur[b]
		}
		slot.Counts[i] = count
		slot.P50[i] = quantilePM(&r.delta, count, 500)
		slot.P95[i] = quantilePM(&r.delta, count, 950)
		slot.P99[i] = quantilePM(&r.delta, count, 990)
	}
	r.Record(slot)
	r.mu.Unlock()
}

// Series snapshots the retained points, oldest first, together with the
// series names and interval — the value MsgTimeSeries serializes.
func (r *Recorder) Series() Series {
	return Series{
		IntervalNanos: r.intervalNS,
		Counters:      append([]string(nil), r.counterNames...),
		Hists:         append([]string(nil), r.histNames...),
		Points:        r.Snapshot(),
	}
}
