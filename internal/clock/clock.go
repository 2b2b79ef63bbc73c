// Package clock provides the virtual clock that drives the storage
// simulation. All device latencies, cache waits, and workload CPU costs
// advance this clock instead of wall time, which makes every experiment
// deterministic, seed-reproducible, and orders of magnitude faster than
// real time — the standard discrete-event substitution for the paper's
// physical NVMe/SATA testbed.
package clock

import (
	"fmt"
	"time"
)

// Virtual is a monotonically advancing simulated clock. It is not
// goroutine-safe: the simulation is single-threaded by design (one virtual
// timeline), matching the single foreground I/O path being modeled.
type Virtual struct {
	now time.Duration
}

// New returns a clock at time zero.
func New() *Virtual { return &Virtual{} }

// Now returns the current virtual time as an offset from simulation start.
func (v *Virtual) Now() time.Duration { return v.now }

// Advance moves the clock forward by d.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("clock: cannot advance by negative duration %v", d))
	}
	v.now += d
}

// AdvanceTo moves the clock forward to t; moving backward is a programming
// error (the simulation would become causally inconsistent).
func (v *Virtual) AdvanceTo(t time.Duration) {
	if t < v.now {
		panic(fmt.Sprintf("clock: cannot move backward from %v to %v", v.now, t))
	}
	v.now = t
}
