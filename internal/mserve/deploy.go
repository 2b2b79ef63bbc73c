// Deployment is the hot-swap boundary between the control plane (deploy,
// rollback) and the data plane (per-event inference). The paper's kernel
// module swaps a newly trained model into the running tuner without
// stopping collection; here that is a single atomic pointer store, and the
// reader side is a single atomic load — no lock, no RCU grace period, no
// allocation — so a deploy can never stall the hot path or cause a
// collection event to be dropped.
package mserve

import "sync/atomic"

// Snapshot pairs a model with the registry version it came from. Snapshots
// are immutable once published: a deploy builds a new Snapshot and swaps
// the pointer, so readers holding the old one keep a consistent
// (model, version) pair for the duration of their request.
type Snapshot[T any] struct {
	Model   T
	Version uint64
}

// Deployment[T] is an atomic hot-swap handle. The zero value is an empty
// deployment: Load returns nil until the first Swap. T is whatever the
// reader dereferences per request — *Artifact on the server (each
// connection instantiates its own inference state), core.Classifier in a
// single-goroutine reader like readahead.Tuner.
type Deployment[T any] struct {
	ptr atomic.Pointer[Snapshot[T]]
}

// NewDeployment returns a deployment already serving (model, version).
func NewDeployment[T any](model T, version uint64) *Deployment[T] {
	d := &Deployment[T]{}
	d.Swap(model, version)
	return d
}

// Load returns the current snapshot, or nil if nothing is deployed. It is
// the per-request dereference on the serving hot path: one atomic pointer
// load, safe for any number of concurrent readers during a Swap.
//
//kml:hotpath
func (d *Deployment[T]) Load() *Snapshot[T] {
	return d.ptr.Load()
}

// Swap atomically publishes (model, version) and returns the previous
// snapshot (nil on first deploy). In-flight readers continue against the
// snapshot they loaded; new loads see the new version.
func (d *Deployment[T]) Swap(model T, version uint64) *Snapshot[T] {
	s := &Snapshot[T]{Model: model, Version: version}
	return d.ptr.Swap(s)
}

// Version returns the currently deployed version, or 0 if empty.
func (d *Deployment[T]) Version() uint64 {
	if s := d.ptr.Load(); s != nil {
		return s.Version
	}
	return 0
}
