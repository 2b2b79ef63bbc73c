package mserve

import (
	"sync"
	"sync/atomic"
	"testing"
)

// tornDetector pairs an ID with the version it was published under;
// readers verify the pair stays consistent across swaps.
type tornDetector struct {
	id uint64
}

func TestDeploymentEmptyAndSwap(t *testing.T) {
	var d Deployment[*tornDetector]
	if d.Load() != nil || d.Version() != 0 {
		t.Fatal("zero Deployment is not empty")
	}
	prev := d.Swap(&tornDetector{id: 1}, 1)
	if prev != nil {
		t.Fatalf("first swap returned %+v", prev)
	}
	if s := d.Load(); s == nil || s.Version != 1 || s.Model.id != 1 {
		t.Fatalf("after swap: %+v", d.Load())
	}
	prev = d.Swap(&tornDetector{id: 2}, 2)
	if prev == nil || prev.Version != 1 {
		t.Fatalf("second swap returned %+v", prev)
	}
	if d.Version() != 2 {
		t.Fatalf("version=%d", d.Version())
	}

	d2 := NewDeployment(&tornDetector{id: 9}, 9)
	if s := d2.Load(); s == nil || s.Version != 9 {
		t.Fatalf("NewDeployment: %+v", d2.Load())
	}
}

// TestDeploymentHotSwapConsistency hammers Load from many readers while a
// writer swaps versions: every observed snapshot must be internally
// consistent (model matches version) and versions must never run
// backwards on a single reader — the lock-free publication contract the
// serving path relies on. Run under -race in CI.
func TestDeploymentHotSwapConsistency(t *testing.T) {
	d := NewDeployment(&tornDetector{id: 1}, 1)
	const (
		readers = 8
		swaps   = 5000
	)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(0)
			for !stop.Load() {
				s := d.Load()
				if s == nil {
					t.Error("Load returned nil after first deploy")
					return
				}
				if s.Model.id != s.Version {
					t.Errorf("torn snapshot: model %d under version %d", s.Model.id, s.Version)
					return
				}
				if s.Version < last {
					t.Errorf("version ran backwards: %d after %d", s.Version, last)
					return
				}
				last = s.Version
			}
		}()
	}
	for v := uint64(2); v <= swaps; v++ {
		d.Swap(&tornDetector{id: v}, v)
	}
	stop.Store(true)
	wg.Wait()
	if d.Version() != swaps {
		t.Fatalf("final version=%d", d.Version())
	}
}
