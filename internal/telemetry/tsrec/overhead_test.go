package tsrec

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TickOverheadBudgetNanos bounds one full capture tick at a realistic
// serving watch-list (5 counters + 4 histograms). A tick walks
// 4×64 buckets plus three quantile scans per histogram — measured ~2 µs
// — and fires once per interval (default 1 s), so even this generous
// ceiling keeps the recorder at well under 0.002% duty cycle. The gate
// exists because a regression here (an accidental allocation, a
// per-bucket lock) would turn the observer into the load.
const TickOverheadBudgetNanos = 20_000

func measure(iters, rounds int, f func(n int)) float64 {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		f(iters)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(iters)
}

func newServingShapedRecorder(tb testing.TB) (*Recorder, *telemetry.Histogram) {
	reg := telemetry.NewRegistry()
	r, err := New(reg, Config{
		Counters: []string{"c1", "c2", "c3", "c4", "c5"},
		Hists:    []string{"h1", "h2", "h3", "h4"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	h := reg.Histogram("h1")
	for i := 0; i < 10_000; i++ {
		h.Observe(int64(i))
	}
	return r, h
}

// TestTimeSeriesOverheadBudget fails the build when one capture tick
// exceeds the budget or allocates — the tsrec half of the repo's
// overhead self-checks (telemetry 50 ns/event, dtrace 100 ns/trace).
func TestTimeSeriesOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race detector intercepts atomics; timings would measure the detector")
	}
	r, h := newServingShapedRecorder(t)
	now := int64(0)
	perTick := measure(2_000, 5, func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(int64(i & 4095))
			now += 1000
			r.Tick(now)
		}
	})
	t.Logf("tick %.0f ns (budget %d ns)", perTick, TickOverheadBudgetNanos)
	if perTick > TickOverheadBudgetNanos {
		t.Fatalf("tsrec tick costs %.0f ns, over the %d ns budget", perTick, TickOverheadBudgetNanos)
	}
	allocs := testing.AllocsPerRun(200, func() {
		now += 1000
		r.Tick(now)
	})
	if allocs != 0 {
		t.Fatalf("tick allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkE10_TimeSeriesTick measures one full capture tick at the
// serving registry's shape: the recorder goroutine's per-interval cost,
// gated by TestTimeSeriesOverheadBudget (≤ 20 µs, 0 allocs).
func BenchmarkE10_TimeSeriesTick(b *testing.B) {
	r, h := newServingShapedRecorder(b)
	now := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 4095))
		now += 1000
		r.Tick(now)
	}
}
