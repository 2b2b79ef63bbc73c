package memutil

import (
	"strings"
	"sync"
	"testing"
)

func TestChargeReleasePeak(t *testing.T) {
	a := NewArena("test")
	if !a.Charge(100) {
		t.Fatal("unbounded charge failed")
	}
	if !a.Charge(50) {
		t.Fatal("second charge failed")
	}
	if a.Live() != 150 || a.Peak() != 150 {
		t.Errorf("live=%d peak=%d", a.Live(), a.Peak())
	}
	a.Release(120)
	if a.Live() != 30 {
		t.Errorf("live after release = %d", a.Live())
	}
	if a.Peak() != 150 {
		t.Error("peak must not decrease")
	}
	if a.allocs != 2 {
		t.Errorf("allocs = %d", a.allocs)
	}
}

func TestReservationRejects(t *testing.T) {
	a := NewArena("capped")
	a.Reserve(100)
	if !a.Charge(80) {
		t.Fatal("charge under cap failed")
	}
	if a.Charge(30) {
		t.Fatal("charge over cap succeeded")
	}
	if a.fails != 1 {
		t.Errorf("fails = %d", a.fails)
	}
	a.Release(80)
	if !a.Charge(100) {
		t.Error("charge exactly at cap should succeed")
	}
}

func TestReserveZeroUnbounded(t *testing.T) {
	a := NewArena("x")
	a.Reserve(10)
	a.Reserve(0)
	if !a.Charge(1 << 30) {
		t.Error("cap of 0 should mean unbounded")
	}
}

func TestOverReleasePanics(t *testing.T) {
	a := NewArena("x")
	a.Charge(10)
	defer func() {
		if recover() == nil {
			t.Error("over-release must panic")
		}
	}()
	a.Release(11)
}

func TestNegativeChargePanics(t *testing.T) {
	a := NewArena("x")
	defer func() {
		if recover() == nil {
			t.Error("negative charge must panic")
		}
	}()
	a.Charge(-1)
}

func TestConcurrentCharges(t *testing.T) {
	a := NewArena("conc")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				a.Charge(8)
				a.Release(8)
			}
		}()
	}
	wg.Wait()
	if a.Live() != 0 {
		t.Errorf("live = %d after balanced charges", a.Live())
	}
	if a.allocs != 8000 {
		t.Errorf("allocs = %d", a.allocs)
	}
}

func TestString(t *testing.T) {
	a := NewArena("model")
	a.Charge(42)
	s := a.String()
	if !strings.Contains(s, "model") || !strings.Contains(s, "live=42B") {
		t.Errorf("String() = %q", s)
	}
}
