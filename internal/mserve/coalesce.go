// Cross-connection micro-batch coalescing. The fused PredictBatch kernel
// amortizes to ~0.12-0.18 µs/sample only at batch >= 64, but a fleet of
// small clients each sending single Infer requests never hands the server
// a batch that size — each connection's request is one row. The coalescer
// closes that gap on the server side: concurrent Infer/BatchInfer rows
// from DIFFERENT connections are gathered into one shared arena under a
// bounded window, classified in one fused PredictBatch call, and demuxed
// back to each owning connection.
//
// Design (DESIGN.md §14):
//
//   - Leader-executes, no background goroutine. The first request into an
//     empty gather opens a batch and becomes its leader; it parks on a
//     reusable timer bounding the gather window. Followers gather their
//     rows and park on their per-connection done channel. Whoever closes
//     the batch executes it: the follower that fills it to CoalesceMax, or
//     the leader at window expiry. Because every executor is a connection
//     goroutine already counted in the server's WaitGroup, shutdown drains
//     pending batches for free — connections finish, batches flush,
//     THEN the recorder and pipeline stop.
//
//   - Alloc-free steady state. Gather arenas (flattened feature rows,
//     demux entries, class scratch) are pooled and grown once to the
//     configured capacity; waiters own their result buffers and signal
//     channels across requests. TestCoalesceAllocFree pins 0 allocs/op on
//     the warmed path, like the rest of the serve loop.
//
//   - Attribution. The executor stamps each waiter with the batch's start
//     and end and its achieved size; the request path (Server.infer)
//     turns those into the request's own queue and infer spans, so the
//     gather wait lands in StageQueue and mserve_queue_delay_ns. Achieved
//     batch sizes land in the mserve_coalesce_batch histogram — the
//     distribution that proves the window is buying amortization.
package mserve

import (
	"sync"
	"time"
)

// Coalescer sizing defaults (Config.CoalesceMax when left zero with a
// nonzero window).
const (
	defaultCoalesceMax = 64
	// coalesceFreeBatches bounds the recycled-arena stack. Two batches can
	// be in flight at once (one executing at window expiry while the next
	// gathers); 4 leaves slack without hoarding.
	coalesceFreeBatches = 4
)

// coalescer gathers inference rows across connections into fused batches:
// one gather domain with its mutex, the batch currently filling (nil when
// none), and a small stack of recycled arenas.
type coalescer struct {
	window  time.Duration
	maxRows int

	mu   sync.Mutex
	cur  *gatherBatch
	free []*gatherBatch
}

// gatherBatch is one pooled gather arena: feature rows from many requests
// flattened row-major, the demux table mapping contiguous row ranges back
// to their waiters, and the executor's class scratch. A batch is owned by
// the coalescer (under mu) while filling and by exactly one executor after
// being taken.
type gatherBatch struct {
	feats      []float64     // gathered rows, row-major, len == rows*nfeat
	rowClasses []int         // executor scratch, cap >= maxRows
	entries    []gatherEntry // demux table, in gather order
	rows       int
	nfeat      int
	taken      bool      // detached from c.cur; guarded by c.mu
	inst       *Instance // executor-cached instance, revalidated per batch
}

// gatherEntry maps one request's contiguous rows back to its waiter.
type gatherEntry struct {
	w    *coalWaiter
	rows int
}

// coalWaiter holds one connection's classified request: its parking spot
// in a gather, where the executor writes the request's results and then
// signals done, and the same result fields the inline path fills. All
// fields are owned by the connection goroutine except between submit and
// the done signal, when the executor owns them (the channel send
// publishes).
type coalWaiter struct {
	done      chan struct{} // cap 1; exactly one send per submit
	timer     *time.Timer   // leader's gather-window bound, reused
	classes   []uint16      // demuxed results, sized by the request
	version   uint64        // model version that served the batch
	batchRows int           // rows in the forward pass (all requests' rows)
	startNS   int64         // forward-pass start (ends a gather wait)
	endNS     int64         // forward-pass end
	failed    bool          // no servable model at execute time
}

func newCoalescer(window time.Duration, maxRows int) *coalescer {
	if maxRows <= 0 {
		maxRows = defaultCoalesceMax
	}
	if maxRows > MaxBatchRows {
		maxRows = MaxBatchRows
	}
	return &coalescer{window: window, maxRows: maxRows}
}

// get returns a reset gather arena, recycling from the free stack when
// possible. Called with c.mu held.
func (c *coalescer) get(nfeat int) *gatherBatch {
	var b *gatherBatch
	if n := len(c.free); n > 0 {
		b = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		b = &gatherBatch{
			feats:      make([]float64, 0, c.maxRows*nfeat),
			rowClasses: make([]int, c.maxRows),
			entries:    make([]gatherEntry, 0, c.maxRows),
		}
	}
	b.nfeat = nfeat
	b.rows = 0
	b.taken = false
	return b
}

// put recycles an executed arena onto the free stack, dropping it when
// the stack is full.
func (c *coalescer) put(b *gatherBatch) {
	c.mu.Lock()
	if len(c.free) < coalesceFreeBatches {
		c.free = append(c.free, b)
	}
	c.mu.Unlock()
}

// gatherRows copies one request's rows into the arena's flattened feature
// buffer at the current tail. Capacity is ensured by the caller (submit
// grows off the hot path), so this is pure data movement.
//
//kml:hotpath
func (b *gatherBatch) gatherRows(feats []float64) {
	off := b.rows * b.nfeat
	dst := b.feats[:off+len(feats)]
	copy(dst[off:], feats)
	b.feats = dst
}

// demuxClasses copies one request's slice of the executor's class scratch
// back into the waiter's result buffer — the per-request demux that routes
// a fused batch's outputs to their owning connections.
//
//kml:hotpath
func demuxClasses(dst []uint16, src []int) {
	for i, c := range src {
		dst[i] = uint16(c)
	}
}

// submit gathers rows feature vectors (row-major in feats, nfeat wide;
// rows < c.maxRows) into the open batch and blocks until an executor
// demuxes this request's results into w.
func (c *coalescer) submit(s *Server, w *coalWaiter, feats []float64, rows, nfeat int) {
	if w.done == nil {
		w.done = make(chan struct{}, 1)
	}
	c.mu.Lock()
	b := c.cur
	// A request that doesn't fit the open batch — no row room, or a
	// different feature width after a hot swap — flushes it first: this
	// goroutine detaches and executes the old batch, then opens a new one
	// for itself. Earlier waiters never wait on a later request's shape.
	// The lock is dropped while the old batch runs, so a racing submitter
	// may have opened a fresh batch this request doesn't fit either:
	// re-test until it fits or there is no open batch.
	for b != nil && (b.nfeat != nfeat || b.rows+rows > c.maxRows) {
		c.cur = nil
		b.taken = true
		c.mu.Unlock()
		s.runBatch(b)
		c.mu.Lock()
		b = c.cur
	}
	leader := b == nil
	if leader {
		b = c.get(nfeat)
		c.cur = b
	}
	if need := (b.rows + rows) * nfeat; cap(b.feats) < need {
		// Cold: first time this arena sees this feature width.
		grown := make([]float64, len(b.feats), need)
		copy(grown, b.feats)
		b.feats = grown
	}
	b.gatherRows(feats[:rows*nfeat])
	b.entries = append(b.entries, gatherEntry{w: w, rows: rows})
	b.rows += rows
	full := b.rows >= c.maxRows
	if full {
		c.cur = nil
		b.taken = true
	}
	c.mu.Unlock()

	if full {
		// The filler executes immediately — a full batch gains nothing
		// from waiting out the window.
		s.runBatch(b)
		<-w.done
		return
	}
	if !leader {
		<-w.done
		return
	}
	// Leader: bound the gather with the window timer. If a filler (or a
	// shape-mismatch flush) executes the batch first, the done signal
	// arrives and the timer is disarmed; otherwise the leader detaches
	// and executes whatever gathered.
	if w.timer == nil {
		w.timer = time.NewTimer(c.window)
	} else {
		w.timer.Reset(c.window)
	}
	select {
	case <-w.done:
		if !w.timer.Stop() {
			select {
			case <-w.timer.C:
			default:
			}
		}
		return
	case <-w.timer.C:
	}
	c.mu.Lock()
	if c.cur == b && !b.taken {
		c.cur = nil
		b.taken = true
		c.mu.Unlock()
		s.runBatch(b)
		<-w.done
		return
	}
	// Someone else took the batch between the timer firing and the lock;
	// its executor will signal (or already has).
	c.mu.Unlock()
	<-w.done
}

// runBatch executes one detached gather batch: one classify over every
// gathered row, then the per-request demux — results and attribution
// stamps into each waiter, published by the done send. The executor is
// whichever connection goroutine detached the batch, so there is no
// dedicated inference thread to saturate, start, or drain.
func (s *Server) runBatch(b *gatherBatch) {
	start := time.Now().UnixNano()
	var inst *Instance
	if snap := s.dep.Load(); snap != nil && snap.Model.InDim == b.nfeat {
		b.inst, _ = instanceFor(b.inst, snap) // nil if it cannot instantiate
		inst = b.inst
	}
	if inst != nil {
		s.classify(inst, b.feats[:b.rows*b.nfeat], b.rows, b.nfeat, b.rowClasses[:b.rows])
	}
	end := time.Now().UnixNano()
	s.coalesceBatches.Add(1)
	s.coalesceRows.Add(uint64(b.rows))
	s.coalesceHist.Observe(int64(b.rows))
	off := 0
	for i := range b.entries {
		e := &b.entries[i]
		w := e.w
		w.startNS, w.endNS = start, end
		w.batchRows = b.rows
		if inst == nil {
			w.failed = true
		} else {
			w.failed = false
			w.version = inst.Version()
			demuxClasses(w.classes[:e.rows], b.rowClasses[off:off+e.rows])
		}
		off += e.rows
		e.w = nil
		w.done <- struct{}{} // publishes every field written above
	}
	b.entries = b.entries[:0]
	b.feats = b.feats[:0]
	b.rows = 0
	s.coal.put(b)
}
