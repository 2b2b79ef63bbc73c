package core

import (
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

type sample struct {
	inode  uint64
	offset int64
}

func TestPipelineCollectAndFlush(t *testing.T) {
	var got []sample
	p, err := NewPipeline[sample](Config{}, func(batch []sample, mode Mode) {
		got = append(got, batch...)
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetMode(ModeTraining)
	for i := 0; i < 10; i++ {
		if !p.Collect(sample{inode: uint64(i)}) {
			t.Fatalf("collect %d failed", i)
		}
	}
	p.Flush()
	if len(got) != 10 {
		t.Fatalf("handler saw %d samples", len(got))
	}
	for i, s := range got {
		if s.inode != uint64(i) {
			t.Errorf("order broken at %d", i)
		}
	}
	if p.Collected() != 10 || p.processed.Load() != 10 || p.Dropped() != 0 {
		t.Errorf("counters: %d/%d/%d", p.Collected(), p.processed.Load(), p.Dropped())
	}
}

func TestPipelineModeOffDiscards(t *testing.T) {
	calls := 0
	p, err := NewPipeline[int](Config{}, func([]int, Mode) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	p.Collect(1)
	p.Flush() // still ModeOff
	if calls != 0 {
		t.Error("handler must not run in ModeOff")
	}
	if p.processed.Load() != 1 {
		t.Error("off-mode samples still count as processed (discarded)")
	}
}

func TestPipelineModeVisibleToHandler(t *testing.T) {
	var seen []Mode
	p, err := NewPipeline[int](Config{}, func(_ []int, m Mode) { seen = append(seen, m) })
	if err != nil {
		t.Fatal(err)
	}
	p.SetMode(ModeTraining)
	p.Collect(1)
	p.Flush()
	p.SetMode(ModeInference)
	p.Collect(2)
	p.Flush()
	if len(seen) != 2 || seen[0] != ModeTraining || seen[1] != ModeInference {
		t.Errorf("modes seen: %v", seen)
	}
}

func TestPipelineAsync(t *testing.T) {
	var mu sync.Mutex
	var got []int
	p, err := NewPipeline[int](Config{Poll: 100 * time.Microsecond}, func(batch []int, _ Mode) {
		mu.Lock()
		got = append(got, batch...)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetMode(ModeTraining)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		for !p.Collect(i) {
			time.Sleep(time.Microsecond)
		}
	}
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		l := len(got)
		mu.Unlock()
		if l == n {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("timed out: handler saw %d of %d", l, n)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	p.Stop()
	mu.Lock()
	defer mu.Unlock()
	if !sort.IntsAreSorted(got) {
		t.Error("async pipeline reordered samples")
	}
}

func TestPipelineStopDrains(t *testing.T) {
	var mu sync.Mutex
	count := 0
	p, err := NewPipeline[int](Config{Poll: time.Hour}, func(batch []int, _ Mode) {
		mu.Lock()
		count += len(batch)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetMode(ModeTraining)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// Give the run loop a moment to consume the initial wake, then fill the
	// ring without wakes racing: Collect sends a wake; either way Stop's
	// final drain must account for everything.
	for i := 0; i < 100; i++ {
		p.Collect(i)
	}
	p.Stop()
	mu.Lock()
	defer mu.Unlock()
	if count != 100 {
		t.Errorf("Stop lost samples: handler saw %d", count)
	}
}

// TestPipelineWakesPerBatch pins Collect's wake rule: with the poll tick
// out of reach, BatchSize-1 samples stay in the ring, the BatchSize-th
// wakes the training thread, and Stop drains whatever is left.
func TestPipelineWakesPerBatch(t *testing.T) {
	const batch = 8
	got := make(chan int, 4)
	p, err := NewPipeline[int](Config{BatchSize: batch, Poll: time.Hour}, func(b []int, _ Mode) {
		got <- len(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetMode(ModeTraining)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < batch-1; i++ {
		p.Collect(i)
	}
	select {
	case n := <-got:
		t.Fatalf("handler woke for %d samples below BatchSize", n)
	case <-time.After(50 * time.Millisecond):
	}
	p.Collect(batch - 1)
	select {
	case n := <-got:
		if n != batch {
			t.Fatalf("handler got %d samples, want %d", n, batch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the BatchSize-th sample did not wake the handler")
	}
	for i := 0; i < 3; i++ {
		p.Collect(batch + i)
	}
	p.Stop()
	if n := <-got; n != 3 || p.processed.Load() != batch+3 {
		t.Fatalf("Stop drained %d, processed %d; want 3 and %d", n, p.processed.Load(), batch+3)
	}
}

func TestPipelineDoubleStartErrors(t *testing.T) {
	p, err := NewPipeline[int](Config{}, func([]int, Mode) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if err := p.Start(); err == nil {
		t.Error("double Start must error")
	}
}

func TestPipelineStopIdempotent(t *testing.T) {
	p, err := NewPipeline[int](Config{}, func([]int, Mode) {})
	if err != nil {
		t.Fatal(err)
	}
	p.Stop() // never started: no-op
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	p.Stop() // second stop must not panic or deadlock
}

func TestPipelineDropsWhenFull(t *testing.T) {
	p, err := NewPipeline[int](Config{BufferCapacity: 4}, func([]int, Mode) {})
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for i := 0; i < 10; i++ {
		if p.Collect(i) {
			ok++
		}
	}
	if ok != 4 {
		t.Errorf("accepted %d, want 4", ok)
	}
	if p.Dropped() != 6 {
		t.Errorf("dropped %d, want 6", p.Dropped())
	}
}

func TestPipelineNilHandler(t *testing.T) {
	if _, err := NewPipeline[int](Config{}, nil); err == nil {
		t.Error("nil handler must error")
	}
}

func TestModeString(t *testing.T) {
	if ModeOff.String() != "off" || ModeTraining.String() != "training" ||
		ModeInference.String() != "inference" || Mode(9).String() != "mode(9)" {
		t.Error("Mode.String")
	}
}

func BenchmarkCollect(b *testing.B) {
	p, err := NewPipeline[sample](Config{BufferCapacity: 1 << 16}, func([]sample, Mode) {})
	if err != nil {
		b.Fatal(err)
	}
	p.SetMode(ModeTraining)
	if err := p.Start(); err != nil {
		b.Fatal(err)
	}
	defer p.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Collect(sample{inode: uint64(i), offset: int64(i)})
	}
}

// TestPipelineGauges pins RegisterMetrics: the registered gauges mirror
// the pipeline's own counters and ring state after a drain.
func TestPipelineGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	handled := 0
	p, err := NewPipeline[int](
		Config{BufferCapacity: 64, BatchSize: 8},
		func(batch []int, _ Mode) { handled += len(batch) },
	)
	if err != nil {
		t.Fatal(err)
	}
	p.RegisterMetrics(reg, "test_ring")
	p.SetMode(ModeTraining)
	const n = 40
	for i := 0; i < n; i++ {
		if !p.Collect(i) {
			t.Fatalf("Collect(%d) rejected", i)
		}
	}
	p.Flush()
	if handled != n {
		t.Errorf("handler saw %d samples, want %d", handled, n)
	}

	byName := map[string]int64{}
	for _, s := range reg.Snapshot() {
		if s.Kind == telemetry.KindFunc {
			byName[s.Name] = s.Value
		}
	}
	if byName["test_ring_collected"] != n || byName["test_ring_processed"] != n {
		t.Errorf("gauges collected=%d processed=%d, want %d",
			byName["test_ring_collected"], byName["test_ring_processed"], n)
	}
	if byName["test_ring_dropped"] != 0 || byName["test_ring_buffer_len"] != 0 {
		t.Errorf("gauges dropped=%d buffer_len=%d, want 0",
			byName["test_ring_dropped"], byName["test_ring_buffer_len"])
	}
	if byName["test_ring_buffer_cap"] != 64 {
		t.Errorf("buffer_cap gauge = %d, want 64", byName["test_ring_buffer_cap"])
	}
}

// TestPipelineMetricsOffMode: a ModeOff batch is discarded without
// reaching the handler, but still counts as processed.
func TestPipelineMetricsOffMode(t *testing.T) {
	p, err := NewPipeline[int](
		Config{BufferCapacity: 16},
		func(batch []int, _ Mode) { t.Error("handler ran in ModeOff") },
	)
	if err != nil {
		t.Fatal(err)
	}
	p.Collect(1)
	p.Flush()
	if p.processed.Load() != 1 {
		t.Fatalf("processed = %d, want 1 (discarded)", p.processed.Load())
	}
}

// TestPipelineFlushAllocFree gates the drain path the simulation loop
// calls once per operation: Flush allocates nothing, neither on an empty
// ring nor when it drains a full batch into the pipeline's scratch.
func TestPipelineFlushAllocFree(t *testing.T) {
	seen := 0
	p, err := NewPipeline[sample](Config{}, func(batch []sample, _ Mode) { seen += len(batch) })
	if err != nil {
		t.Fatal(err)
	}
	p.SetMode(ModeInference)
	if a := testing.AllocsPerRun(1000, p.Flush); a != 0 {
		t.Errorf("Flush on an empty ring allocates %.1f/run, want 0", a)
	}
	const batch = 256
	runs := 0
	if a := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			p.Collect(sample{inode: uint64(i)})
		}
		p.Flush()
		runs++
	}); a != 0 {
		t.Errorf("Flush draining %d records allocates %.1f/run, want 0", batch, a)
	}
	if seen != runs*batch || p.processed.Load() != uint64(seen) || p.Dropped() != 0 {
		t.Errorf("handler saw %d of %d records (processed %d, dropped %d)",
			seen, runs*batch, p.processed.Load(), p.Dropped())
	}
}
