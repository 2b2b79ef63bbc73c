// Registry: named registration and consistent snapshots of the hot-path
// primitives, plus the plain-text exposition format served at /metrics
// and printed by `kml-ctl status`. Userspace only — registration
// happens at construction time and snapshots on operator request, never
// on a hot path.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Kind discriminates registry entries.
type Kind uint8

// Registry entry kinds.
const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous signed level.
	KindGauge
	// KindHistogram is a log₂-bucket latency distribution.
	KindHistogram
	// KindFunc is a gauge read through a callback at snapshot time,
	// for values a subsystem already tracks (ring occupancy, arena
	// bytes) without double-counting them.
	KindFunc
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindFunc:
		return "func"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

type entry struct {
	kind    Kind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() int64
}

// Registry names metrics and snapshots them consistently. All methods
// are safe for concurrent use; the hot-path primitives a registry hands
// out are themselves lock-free, so registration cost is never paid on
// the paths being measured.
type Registry struct {
	mu      sync.Mutex
	entries map[string]entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]entry)}
}

// Counter returns the counter registered under name, creating it on
// first use. It panics if name is empty or already holds another kind —
// a metric-name clash is a programming error, like a duplicate
// tracepoint.
func (r *Registry) Counter(name string) *Counter {
	e := r.get(name, KindCounter, func() entry { return entry{kind: KindCounter, counter: &Counter{}} })
	return e.counter
}

// Gauge returns the gauge registered under name, creating it on first
// use. Same clash rules as Counter.
func (r *Registry) Gauge(name string) *Gauge {
	e := r.get(name, KindGauge, func() entry { return entry{kind: KindGauge, gauge: &Gauge{}} })
	return e.gauge
}

// Histogram returns the histogram registered under name, creating it on
// first use. Same clash rules as Counter.
func (r *Registry) Histogram(name string) *Histogram {
	e := r.get(name, KindHistogram, func() entry { return entry{kind: KindHistogram, hist: &Histogram{}} })
	return e.hist
}

// Func registers a snapshot-time gauge callback under name, replacing
// any previous callback with that name. fn must be safe to call from
// any goroutine; it runs only during Snapshot.
func (r *Registry) Func(name string, fn func() int64) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	if fn == nil {
		panic("telemetry: nil func metric " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok && e.kind != KindFunc {
		panic(fmt.Sprintf("telemetry: metric %q already registered as %s", name, e.kind))
	}
	r.entries[name] = entry{kind: KindFunc, fn: fn}
}

func (r *Registry) get(name string, kind Kind, mk func() entry) entry {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q already registered as %s, requested %s", name, e.kind, kind))
		}
		return e
	}
	e := mk()
	r.entries[name] = e
	return e
}

// Sample is one metric's state in a registry snapshot.
type Sample struct {
	Name  string
	Kind  Kind
	Value int64             // counter (non-negative), gauge, and func values
	Hist  HistogramSnapshot // histograms only
}

// Snapshot reads every registered metric and returns the samples sorted
// by name, so exposition output is stable across scrapes. Each metric is
// read atomically; the set as a whole is a consistent enough view for
// operations (individual metrics never tear).
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	entries := make([]entry, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		entries = append(entries, r.entries[n])
	}
	r.mu.Unlock()

	out := make([]Sample, len(names))
	for i, n := range names {
		e := entries[i]
		s := Sample{Name: n, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			s.Value = int64(e.counter.Load())
		case KindGauge:
			s.Value = e.gauge.Load()
		case KindHistogram:
			s.Hist = e.hist.Snapshot()
		case KindFunc:
			s.Value = e.fn()
		}
		out[i] = s
	}
	return out
}

// WriteText renders the registry in the plain-text exposition format:
// one `name value` line per scalar metric; histograms expand to
// `_count`, `_sum`, `_p50`/`_p95`/`_p99` (estimated nanoseconds), and
// one cumulative `_bucket_le_<bound>` line per occupied bucket.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		if err := writeSample(w, s); err != nil {
			return err
		}
	}
	return nil
}

func writeSample(w io.Writer, s Sample) error {
	if s.Kind != KindHistogram {
		_, err := fmt.Fprintf(w, "%s %d\n", s.Name, s.Value)
		return err
	}
	h := &s.Hist
	if _, err := fmt.Fprintf(w, "%s_count %d\n%s_sum %d\n%s_p50 %d\n%s_p95 %d\n%s_p99 %d\n",
		s.Name, h.Count, s.Name, h.Sum,
		s.Name, h.Quantile(0.50), s.Name, h.Quantile(0.95), s.Name, h.Quantile(0.99)); err != nil {
		return err
	}
	var cum uint64
	for i, bc := range h.Buckets {
		if bc == 0 {
			continue
		}
		cum += bc
		if _, err := fmt.Fprintf(w, "%s_bucket_le_%d %d\n", s.Name, BucketUpper(i), cum); err != nil {
			return err
		}
	}
	return nil
}
