package ringbuf

import (
	"runtime"
	"sync"
	"testing"
)

// pop removes the oldest element through a one-slot PopBatch, reporting
// whether there was one.
func pop[T any](r *Ring[T]) (T, bool) {
	var one [1]T
	n := r.PopBatch(one[:])
	return one[0], n == 1
}

func TestPushPopFIFO(t *testing.T) {
	r := New[int](4)
	for i := 1; i <= 4; i++ {
		if !r.TryPush(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	for i := 1; i <= 4; i++ {
		v, ok := pop(r)
		if !ok || v != i {
			t.Fatalf("pop got (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := pop(r); ok {
		t.Error("pop from empty should fail")
	}
}

func TestCapacityRounding(t *testing.T) {
	tests := []struct {
		capacity int
		want     int
	}{
		{1, 2},
		{2, 2},
		{3, 4},
		{5, 8},
		{8, 8},
		{9, 16},
		{1 << 20, 1 << 20},
		{1<<20 + 1, 1 << 21},
	}
	for _, tt := range tests {
		if got := New[int](tt.capacity).Cap(); got != tt.want {
			t.Errorf("New(%d).Cap() = %d, want %d", tt.capacity, got, tt.want)
		}
	}
}

func TestCapacityLimits(t *testing.T) {
	// MaxCapacity itself is accepted: zero-size elements keep the backing
	// array free, so the constructor must not reject it.
	if got := New[struct{}](MaxCapacity).Cap(); got != MaxCapacity {
		t.Errorf("New(MaxCapacity).Cap() = %d, want %d", got, MaxCapacity)
	}
	rejected := []struct {
		name     string
		capacity int
	}{
		{"zero", 0},
		{"negative", -1},
		{"very negative", -1 << 40},
		{"above max", MaxCapacity + 1},
	}
	for _, tt := range rejected {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", tt.capacity)
				}
			}()
			New[struct{}](tt.capacity)
		})
	}
}

func TestFullDrops(t *testing.T) {
	r := New[int](2)
	r.TryPush(1)
	r.TryPush(2)
	if r.TryPush(3) {
		t.Error("push to full ring should fail")
	}
	if r.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", r.Dropped())
	}
	// Values already queued must be intact.
	if v, _ := pop(r); v != 1 {
		t.Error("drop must not corrupt queue")
	}
}

func TestLen(t *testing.T) {
	r := New[string](4)
	if r.Len() != 0 {
		t.Error("empty length")
	}
	r.TryPush("a")
	r.TryPush("b")
	if r.Len() != 2 {
		t.Errorf("len = %d", r.Len())
	}
	pop(r)
	if r.Len() != 1 {
		t.Errorf("len after pop = %d", r.Len())
	}
}

func TestWrapAround(t *testing.T) {
	r := New[int](4)
	// Cycle through many wraps.
	for i := 0; i < 100; i++ {
		if !r.TryPush(i) {
			t.Fatalf("push %d", i)
		}
		v, ok := pop(r)
		if !ok || v != i {
			t.Fatalf("wrap pop got (%d,%v), want %d", v, ok, i)
		}
	}
}

func TestPopBatch(t *testing.T) {
	r := New[int](8)
	for i := 0; i < 5; i++ {
		r.TryPush(i)
	}
	dst := make([]int, 3)
	if n := r.PopBatch(dst); n != 3 {
		t.Fatalf("batch n = %d", n)
	}
	for i, v := range dst {
		if v != i {
			t.Errorf("dst[%d] = %d", i, v)
		}
	}
	if n := r.PopBatch(dst); n != 2 {
		t.Fatalf("second batch n = %d", n)
	}
	if n := r.PopBatch(dst); n != 0 {
		t.Fatalf("empty batch n = %d", n)
	}
}

func TestPopReleasesReferences(t *testing.T) {
	r := New[*int](2)
	x := new(int)
	r.TryPush(x)
	pop(r)
	// After pop, the slot must not retain the pointer.
	if r.buf[0] != nil {
		t.Error("slot should be zeroed after pop")
	}
}

func TestConcurrentSPSC(t *testing.T) {
	const n = 200_000
	r := New[int](1024)
	var wg sync.WaitGroup
	wg.Add(2)
	var sumPopped, countPopped uint64
	go func() { // producer
		defer wg.Done()
		for i := 1; i <= n; i++ {
			for !r.TryPush(i) {
				runtime.Gosched() // full: let the consumer drain
			}
		}
	}()
	go func() { // consumer
		defer wg.Done()
		last := 0
		for countPopped < n {
			v, ok := pop(r)
			if !ok {
				runtime.Gosched()
				continue
			}
			if v <= last {
				t.Errorf("out of order: %d after %d", v, last)
				return
			}
			last = v
			sumPopped += uint64(v)
			countPopped++
		}
	}()
	wg.Wait()
	if countPopped != n {
		t.Fatalf("popped %d, want %d", countPopped, n)
	}
	want := uint64(n) * uint64(n+1) / 2
	if sumPopped != want {
		t.Fatalf("sum %d, want %d (lost or duplicated elements)", sumPopped, want)
	}
}

func TestConcurrentWithDrops(t *testing.T) {
	const n = 100_000
	r := New[int](16)
	done := make(chan struct{})
	var popped uint64
	go func() {
		for {
			select {
			case <-done:
				// Drain what's left.
				for {
					if _, ok := pop(r); !ok {
						close(done)
						return
					}
					popped++
				}
			default:
				if _, ok := pop(r); ok {
					popped++
				}
			}
		}
	}()
	pushed := uint64(0)
	for i := 0; i < n; i++ {
		if r.TryPush(i) {
			pushed++
		}
	}
	done <- struct{}{}
	<-done
	if pushed+r.Dropped() != n {
		t.Fatalf("pushed %d + dropped %d != %d", pushed, r.Dropped(), n)
	}
	if popped != pushed {
		t.Fatalf("popped %d != pushed %d", popped, pushed)
	}
}

func BenchmarkTryPushPop(b *testing.B) {
	r := New[uint64](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.TryPush(uint64(i))
		pop(r)
	}
}
