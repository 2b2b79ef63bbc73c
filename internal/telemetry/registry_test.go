package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryCreateOrGet(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("reqs")
	c1.Add(3)
	if c2 := r.Counter("reqs"); c2 != c1 {
		t.Fatal("second Counter(\"reqs\") returned a different counter")
	}
	if r.Counter("reqs").Load() != 3 {
		t.Fatal("counter state lost across lookups")
	}
	g := r.Gauge("depth")
	g.Set(-7)
	if r.Gauge("depth").Load() != -7 {
		t.Fatal("gauge state lost across lookups")
	}
	h := r.Histogram("lat")
	h.Observe(42)
	if r.Histogram("lat").Snapshot().Count != 1 {
		t.Fatal("histogram state lost across lookups")
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	for name, f := range map[string]func(){
		"gauge on counter":     func() { r.Gauge("x") },
		"histogram on counter": func() { r.Histogram("x") },
		"func on counter":      func() { r.Func("x", func() int64 { return 0 }) },
		"empty name":           func() { r.Counter("") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRegistrySnapshotSortedAndTyped(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_count").Add(2)
	r.Gauge("a_gauge").Set(-1)
	r.Histogram("c_hist").Observe(100)
	r.Func("d_func", func() int64 { return 99 })

	samples := r.Snapshot()
	var names []string
	for _, s := range samples {
		names = append(names, s.Name)
	}
	want := []string{"a_gauge", "b_count", "c_hist", "d_func"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("snapshot order %v, want %v", names, want)
	}
	if samples[0].Kind != KindGauge || samples[0].Value != -1 {
		t.Errorf("gauge sample: %+v", samples[0])
	}
	if samples[1].Kind != KindCounter || samples[1].Value != 2 {
		t.Errorf("counter sample: %+v", samples[1])
	}
	if samples[2].Kind != KindHistogram || samples[2].Hist.Count != 1 {
		t.Errorf("histogram sample: %+v", samples[2])
	}
	if samples[3].Kind != KindFunc || samples[3].Value != 99 {
		t.Errorf("func sample: %+v", samples[3])
	}
}

func TestWriteTextExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total").Add(5)
	h := r.Histogram("infer_ns")
	for i := 0; i < 10; i++ {
		h.Observe(100)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"events_total 5\n",
		"infer_ns_count 10\n",
		"infer_ns_sum 1000\n",
		"infer_ns_p50 ",
		"infer_ns_p95 ",
		"infer_ns_p99 ",
		"infer_ns_bucket_le_127 10\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestConcurrentSnapshot hammers every metric kind from writer
// goroutines while snapshotting concurrently; run under -race this pins
// the lock-free primitives' safety and the registry's own locking.
func TestConcurrentSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	var depth Gauge
	r.Func("f", depth.Load)

	const writers = 4
	const perWriter = 10_000
	stop := make(chan struct{})
	var producers, readers sync.WaitGroup
	for w := 0; w < writers; w++ {
		producers.Add(1)
		go func(seed int64) {
			defer producers.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(seed + int64(i))
				depth.Set(int64(i))
			}
		}(int64(w))
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range r.Snapshot() {
				if s.Kind == KindHistogram {
					_ = s.Hist.Quantile(0.99)
				}
			}
			var sb strings.Builder
			_ = r.WriteText(&sb)
		}
	}()
	producers.Wait()
	close(stop)
	readers.Wait()

	if got := c.Load(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := h.Snapshot().Count; got != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", got, writers*perWriter)
	}
}
