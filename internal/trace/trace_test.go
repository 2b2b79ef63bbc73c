package trace

import (
	"sync"
	"testing"
	"time"
)

func TestEmitDispatchesToHooks(t *testing.T) {
	tr := New()
	var got []Event
	tr.Register(func(ev Event) { got = append(got, ev) })
	ev := Event{Point: AddToPageCache, Inode: 7, Offset: 42, Time: time.Second}
	tr.Emit(ev)
	if len(got) != 1 || got[0] != ev {
		t.Fatalf("hook saw %v", got)
	}
}

func TestMultipleHooks(t *testing.T) {
	tr := New()
	a, b := 0, 0
	tr.Register(func(Event) { a++ })
	tr.Register(func(Event) { b++ })
	tr.Emit(Event{Point: AddToPageCache})
	if a != 1 || b != 1 {
		t.Errorf("hooks saw %d/%d", a, b)
	}
}

func TestDisabledTracerSkips(t *testing.T) {
	tr := New()
	calls := 0
	tr.Register(func(Event) { calls++ })
	tr.SetEnabled(false)
	if tr.enabled.Load() {
		t.Error("enabled after disable")
	}
	tr.Emit(Event{Point: AddToPageCache})
	if calls != 0 {
		t.Error("disabled tracer dispatched")
	}
	if tr.counts[AddToPageCache].Load() != 0 {
		t.Error("disabled tracer counted")
	}
}

func TestCounts(t *testing.T) {
	tr := New()
	tr.Emit(Event{Point: AddToPageCache})
	tr.Emit(Event{Point: AddToPageCache})
	tr.Emit(Event{Point: WritebackDirtyPage})
	if tr.counts[AddToPageCache].Load() != 2 || tr.counts[WritebackDirtyPage].Load() != 1 {
		t.Error("per-point counts")
	}
	if tr.Total() != 3 {
		t.Errorf("total = %d", tr.Total())
	}
}

func TestPointNames(t *testing.T) {
	if AddToPageCache.String() != "add_to_page_cache" {
		t.Error(AddToPageCache.String())
	}
	if WritebackDirtyPage.String() != "writeback_dirty_page" {
		t.Error(WritebackDirtyPage.String())
	}
	if Point(99).String() != "unknown" {
		t.Error("unknown point name")
	}
}

func TestNilHookPanics(t *testing.T) {
	tr := New()
	defer func() {
		if recover() == nil {
			t.Error("nil hook must panic")
		}
	}()
	tr.Register(nil)
}

func BenchmarkEmitOneHook(b *testing.B) {
	tr := New()
	var sink uint64
	tr.Register(func(ev Event) { sink += ev.Inode })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Point: AddToPageCache, Inode: uint64(i), Offset: int64(i)})
	}
	_ = sink
}

// TestConcurrentEmitAndCount reads the per-point counts while emitters
// run — exactly what a telemetry snapshot or -status endpoint does
// against a live tracer. Before counts became atomic this was a data
// race (plain uint64 add vs unsynchronized read); under -race this test
// pins the fix.
func TestConcurrentEmitAndCount(t *testing.T) {
	tr := New()
	const emitters = 4
	const perEmitter = 20_000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(p Point) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				tr.Emit(Event{Point: p, Inode: uint64(i)})
			}
		}(Point(e % 2))
	}
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a := tr.counts[AddToPageCache].Load()
			b := tr.counts[WritebackDirtyPage].Load()
			total := tr.Total()
			// Counts only grow; a stale total may trail the fresh ones
			// but no read may exceed the final tally.
			if a+b > emitters*perEmitter || total > emitters*perEmitter {
				t.Errorf("counts overshot: %d + %d, total %d", a, b, total)
				return
			}
			_ = tr.enabled.Load()
		}
	}()
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if got := tr.Total(); got != emitters*perEmitter {
		t.Fatalf("Total() = %d, want %d", got, emitters*perEmitter)
	}
}
