// Package memutil is the portability/accounting layer standing in for KML's
// development API (§3.3): the paper wraps allocation, threading, logging,
// atomics and file operations behind ~27 functions so the identical model
// code compiles in user space (malloc) and kernel space (kmalloc).
//
// In Go there is one runtime, so the interesting part to preserve is the
// *accounting and reservation* semantics (§3.1 "KML thus supports memory
// reservation to ensure predictable performance"): every KML allocation is
// charged to an Arena so the framework can report its exact footprint
// (the paper reports 3,916 B for the readahead model + 676 B of inference
// scratch) and so a reservation cap can reject growth under memory pressure.
package memutil

import (
	"fmt"
	"sync"
)

// Arena tracks bytes charged to one KML component. The zero value is an
// unbounded arena; use Reserve to impose a cap.
type Arena struct {
	mu       sync.Mutex
	name     string
	live     int64
	peak     int64
	reserved int64 // 0 means unbounded
	allocs   int64
	fails    int64
}

// NewArena returns a named, unbounded arena.
func NewArena(name string) *Arena { return &Arena{name: name} }

// Reserve caps the arena at n bytes. Allocations that would exceed the cap
// fail. A cap of 0 removes the limit. Reserving below current usage is
// allowed: existing charges stay, further growth fails.
func (a *Arena) Reserve(n int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reserved = n
}

// Charge records an allocation of n bytes and reports whether it fits under
// the reservation. The caller should treat false like a failed kmalloc.
func (a *Arena) Charge(n int64) bool {
	if n < 0 {
		panic("memutil: negative charge")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.reserved > 0 && a.live+n > a.reserved {
		a.fails++
		return false
	}
	a.live += n
	a.allocs++
	if a.live > a.peak {
		a.peak = a.live
	}
	return true
}

// Release returns n bytes to the arena.
func (a *Arena) Release(n int64) {
	if n < 0 {
		panic("memutil: negative release")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.live -= n
	if a.live < 0 {
		panic(fmt.Sprintf("memutil: arena %q released more than charged", a.name))
	}
}

// Live returns the currently charged bytes.
func (a *Arena) Live() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.live
}

// Peak returns the high-water mark of charged bytes.
func (a *Arena) Peak() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// Name returns the arena's name.
func (a *Arena) Name() string { return a.name }

// String summarizes the arena.
func (a *Arena) String() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return fmt.Sprintf("arena %q: live=%dB peak=%dB reserved=%dB allocs=%d fails=%d",
		a.name, a.live, a.peak, a.reserved, a.allocs, a.fails)
}
