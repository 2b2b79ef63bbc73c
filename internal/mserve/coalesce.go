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
//     empty shard opens a batch and becomes its leader; it parks on a
//     reusable timer bounding the gather window. Followers gather their
//     rows and park on their per-connection done channel. Whoever closes
//     the batch executes it: the follower that fills it to CoalesceMax, or
//     the leader at window expiry. Because every executor is a connection
//     goroutine already counted in the server's WaitGroup, shutdown drains
//     pending batches for free — connections finish, batches flush,
//     THEN the recorder and pipeline stop (the same ordering as before).
//
//   - Sharding. One gather lock per shard, connections assigned round-
//     robin at accept. A single shard maximizes batch sizes; more shards
//     trade batch depth for lock spread when core count makes the single
//     gather mutex the bottleneck (the ROADMAP's per-core accept shards).
//     Each shard owns its arenas, so shards never share gather memory.
//
//   - Alloc-free steady state. Gather arenas (flattened feature rows,
//     demux entries, class scratch) are pooled per shard and grown once
//     to the configured capacity; waiters own their result buffers and
//     signal channels across requests. TestCoalesceAllocFree pins
//     0 allocs/op on the warmed path, like the rest of the serve loop.
//
//   - Attribution. Each request keeps its own span tree under its own
//     (possibly client-stamped) TraceID: the gather wait lands in the
//     request's StageQueue span and the mserve_queue_delay_ns histogram,
//     and its StageInfer span is stamped with the achieved batch size
//     (dtrace.PackInferAux). Achieved batch sizes land in the
//     mserve_coalesce_batch histogram — the distribution that proves the
//     window is buying amortization.
package mserve

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/dtrace"
)

// Coalescer sizing defaults (Config.CoalesceMax / CoalesceShards when
// left zero with a nonzero window).
const (
	defaultCoalesceMax = 64
	// coalesceFreeBatches bounds each shard's recycled-arena stack. Two
	// batches per shard can be in flight at once (one executing at window
	// expiry while the next gathers); 4 leaves slack without hoarding.
	coalesceFreeBatches = 4
)

// coalescer gathers inference rows across connections into fused batches.
type coalescer struct {
	window  time.Duration
	maxRows int
	shards  []coalesceShard
}

// coalesceShard is one independent gather domain: a mutex, the batch
// currently filling (nil when none), and a small stack of recycled
// arenas. The trailing pad keeps hot shard state off its neighbors'
// cache lines when shards sit adjacent in the slice.
type coalesceShard struct {
	mu   sync.Mutex
	cur  *gatherBatch
	free []*gatherBatch
	_    [64]byte
}

// gatherBatch is one pooled gather arena: feature rows from many requests
// flattened row-major, the demux table mapping contiguous row ranges back
// to their waiters, and the executor's class scratch. A batch is owned by
// its shard (under mu) while filling and by exactly one executor after
// being taken.
type gatherBatch struct {
	feats      []float64     // gathered rows, row-major, len == rows*nfeat
	rowClasses []int         // executor scratch, cap >= maxRows
	entries    []gatherEntry // demux table, in gather order
	rows       int
	nfeat      int
	taken      bool      // detached from shard.cur; guarded by shard.mu
	inst       *Instance // executor-cached instance, revalidated per batch
}

// gatherEntry maps one request's contiguous rows back to its waiter.
type gatherEntry struct {
	w    *coalWaiter
	rows int
}

// coalWaiter is one connection's parking spot in a gather: the executor
// writes the request's results here, then signals done. All fields are
// owned by the connection goroutine except between submit and the done
// signal, when the executor owns them (the channel send publishes).
type coalWaiter struct {
	done      chan struct{} // cap 1; exactly one send per submit
	timer     *time.Timer   // leader's gather-window bound, reused
	classes   []uint16      // demuxed results, sized by the request
	version   uint64        // model version that served the batch
	batchRows int           // achieved batch size (all requests' rows)
	startNS   int64         // batch execute start (ends the gather wait)
	endNS     int64         // batch execute end
	failed    bool          // no servable model at execute time
}

// ready lazily builds the waiter's reusable signal channel.
func (w *coalWaiter) ready() {
	if w.done == nil {
		w.done = make(chan struct{}, 1)
	}
}

func newCoalescer(window time.Duration, maxRows, shards int) *coalescer {
	if maxRows <= 0 {
		maxRows = defaultCoalesceMax
	}
	if maxRows > MaxBatchRows {
		maxRows = MaxBatchRows
	}
	if shards <= 0 {
		shards = 1
	}
	return &coalescer{window: window, maxRows: maxRows, shards: make([]coalesceShard, shards)}
}

// get returns a reset gather arena, recycling from the shard's free stack
// when possible. Called with sh.mu held.
func (sh *coalesceShard) get(maxRows, nfeat int) *gatherBatch {
	var b *gatherBatch
	if n := len(sh.free); n > 0 {
		b = sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
	} else {
		b = &gatherBatch{
			feats:      make([]float64, 0, maxRows*nfeat),
			rowClasses: make([]int, maxRows),
			entries:    make([]gatherEntry, 0, maxRows),
		}
	}
	b.nfeat = nfeat
	b.rows = 0
	b.taken = false
	return b
}

// put recycles an executed arena onto its shard's free stack, dropping it
// when the stack is full.
func (sh *coalesceShard) put(b *gatherBatch) {
	sh.mu.Lock()
	if len(sh.free) < coalesceFreeBatches {
		sh.free = append(sh.free, b)
	}
	sh.mu.Unlock()
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

// submit gathers rows feature vectors (row-major in feats, nfeat wide)
// into the shard's open batch and blocks until an executor demuxes this
// request's results into w. Returns false when the request is too large
// to coalesce (rows >= the batch capacity) — the caller then takes the
// inline path, which such a batch already amortizes on its own.
func (c *coalescer) submit(s *Server, shard int, w *coalWaiter, feats []float64, rows, nfeat int) bool {
	if rows >= c.maxRows {
		return false
	}
	sh := &c.shards[shard]
	sh.mu.Lock()
	b := sh.cur
	// A request that doesn't fit the open batch — no row room, or a
	// different feature width after a hot swap — flushes it first: this
	// goroutine detaches and executes the old batch, then opens a new one
	// for itself. Earlier waiters never wait on a later request's shape.
	// The lock is dropped while the old batch runs, so a racing submitter
	// may have opened a fresh batch this request doesn't fit either:
	// re-test until it fits or there is no open batch.
	for b != nil && (b.nfeat != nfeat || b.rows+rows > c.maxRows) {
		sh.cur = nil
		b.taken = true
		sh.mu.Unlock()
		s.runBatch(sh, b)
		sh.mu.Lock()
		b = sh.cur
	}
	leader := b == nil
	if leader {
		b = sh.get(c.maxRows, nfeat)
		sh.cur = b
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
		sh.cur = nil
		b.taken = true
	}
	sh.mu.Unlock()

	if full {
		// The filler executes immediately — a full batch gains nothing
		// from waiting out the window.
		s.runBatch(sh, b)
		<-w.done
		return true
	}
	if !leader {
		<-w.done
		return true
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
		return true
	case <-w.timer.C:
	}
	sh.mu.Lock()
	if sh.cur == b && !b.taken {
		sh.cur = nil
		b.taken = true
		sh.mu.Unlock()
		s.runBatch(sh, b)
		<-w.done
		return true
	}
	// Someone else took the batch between the timer firing and the lock;
	// its executor will signal (or already has).
	sh.mu.Unlock()
	<-w.done
	return true
}

// runBatch executes one detached gather batch: one fused PredictBatch over
// every gathered row, one drift observation for the whole batch, then the
// per-request demux — results and attribution stamps into each waiter,
// published by the done send. The executor is whichever connection
// goroutine detached the batch, so there is no dedicated inference thread
// to saturate, start, or drain.
func (s *Server) runBatch(sh *coalesceShard, b *gatherBatch) {
	start := time.Now().UnixNano()
	snap := s.dep.Load()
	var inst *Instance
	if snap != nil && snap.Model.InDim == b.nfeat {
		if b.inst == nil || b.inst.Version() != snap.Version {
			// Cold half of a hot swap, paid once per arena per deploy.
			in, err := snap.Model.Instantiate()
			if err != nil {
				in = nil
			}
			b.inst = in
		}
		inst = b.inst
	}
	if inst != nil {
		inst.PredictBatch(b.feats[:b.rows*b.nfeat], b.rows, b.rowClasses[:b.rows])
		if m := s.drift.Load(); m != nil {
			m.ObserveBatch(b.feats[:b.rows*b.nfeat], b.rows, b.nfeat, b.rowClasses[:b.rows])
		}
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
	sh.put(b)
}

// finishCoalesced does the shared post-gather bookkeeping for a coalesced
// request: attribution counters, the collection-pipeline sample, the
// queue-delay observation (arrival → batch start, so the gather wait is
// what the histogram and StageQueue span show), and the request's own
// span tree under its own TraceID — per-request spans even though the
// infer stage was shared, with the achieved batch size packed into the
// StageInfer span's Aux (dtrace.PackInferAux).
func (s *Server) finishCoalesced(sc *srvConn, tid uint64, class int64, rows int, payloadLen, parseStartNS, parseEndNS int64) {
	w := &sc.cw
	s.inferences.Add(1)
	s.rows.Add(uint64(rows))
	s.collect(Sample{Version: w.version, Class: int32(class), Rows: int32(rows)})
	delay := w.startNS - sc.arrivalNS
	s.queueNanos.Observe(delay)
	sc.queueDone = true
	id := dtrace.TraceID(tid)
	if id == 0 {
		id = s.traces.NextID()
	}
	sc.tb.Start(id, sc.arrivalNS)
	qs := sc.tb.Begin(dtrace.StageQueue, 0, sc.arrivalNS)
	sc.tb.End(qs, w.startNS)
	sc.tb.SetValue(qs, delay)
	ps := sc.tb.Begin(dtrace.StageParse, 0, parseStartNS)
	sc.tb.End(ps, parseEndNS)
	sc.tb.SetValue(ps, payloadLen)
	is := sc.tb.Begin(dtrace.StageInfer, 0, w.startNS)
	sc.tb.End(is, w.endNS)
	sc.tb.SetValue(is, class)
	sc.tb.SetAux(is, dtrace.PackInferAux(w.version, w.batchRows))
}

// encodeCoalesced closes the coalesced request's trace around the encode
// stage and records it.
func (s *Server) encodeCoalesced(sc *srvConn, class int64, rows int) {
	es := sc.tb.Begin(dtrace.StageEncode, 0, time.Now().UnixNano())
	sc.tb.End(es, time.Now().UnixNano())
	sc.tb.SetValue(es, int64(len(sc.resp)))
	sc.tb.SetValue(0, class)
	sc.tb.SetAux(0, int64(rows))
	s.traces.Record(sc.tb.Finish(time.Now().UnixNano()))
}

// doInferCoalesced is the coalesced single-inference path: parse, gather
// the one row into the connection's shard, park until the batch executor
// demuxes the class back, then encode — with the same per-request
// attribution the inline path has.
func (s *Server) doInferCoalesced(sc *srvConn, snap *Snapshot[*Artifact], p []byte) (MsgType, []byte) {
	inDim := snap.Model.InDim
	if len(sc.feats) < inDim {
		sc.feats = make([]float64, inDim)
	}
	parseStart := time.Now().UnixNano()
	n, tid, err := ParseInferReq(p, sc.feats)
	parseEnd := time.Now().UnixNano()
	if err != nil {
		return s.errorResp(sc, "bad infer payload")
	}
	if n != inDim {
		return s.errorResp(sc, fmt.Sprintf("feature count %d, model wants %d", n, inDim))
	}
	w := &sc.cw
	w.ready()
	if cap(w.classes) < 1 {
		w.classes = make([]uint16, 1)
	}
	w.classes = w.classes[:1]
	if !s.coal.submit(s, sc.shard, w, sc.feats[:n], 1, n) {
		return s.errorResp(sc, "coalesce submit refused single row") // unreachable: maxRows > 1
	}
	if w.failed {
		return s.errorResp(sc, "model replaced during gather; retry")
	}
	class := int64(w.classes[0])
	s.finishCoalesced(sc, tid, class, 1, int64(len(p)), parseStart, parseEnd)
	sc.resp = AppendInferResp(sc.resp[:0], w.classes[0], w.version)
	s.encodeCoalesced(sc, class, 1)
	return MsgInfer, sc.resp
}

// doBatchInferCoalesced gathers a small client batch into the shared
// arena alongside other connections' rows. ok=false (request at or above
// the gather capacity, peeked from the wire header without a full parse)
// sends the caller down the inline path.
func (s *Server) doBatchInferCoalesced(sc *srvConn, snap *Snapshot[*Artifact], p []byte) (MsgType, []byte, bool) {
	if len(p) >= 14 {
		// Rows sit after the u64 trace-id prefix (AppendBatchInferReq).
		if rows := int(binary.LittleEndian.Uint32(p[8:])); rows >= s.coal.maxRows {
			return 0, nil, false
		}
	}
	inDim := snap.Model.InDim
	if need := batchFloats(p, inDim); need > len(sc.feats) {
		sc.feats = make([]float64, need)
	}
	parseStart := time.Now().UnixNano()
	rows, nfeat, tid, err := ParseBatchInferReq(p, sc.feats)
	parseEnd := time.Now().UnixNano()
	if err != nil {
		return s.errorResp2(sc, "bad batch payload")
	}
	if nfeat != inDim {
		return s.errorResp2(sc, fmt.Sprintf("feature count %d, model wants %d", nfeat, inDim))
	}
	w := &sc.cw
	w.ready()
	if cap(w.classes) < rows {
		w.classes = make([]uint16, rows)
	}
	w.classes = w.classes[:rows]
	if !s.coal.submit(s, sc.shard, w, sc.feats[:rows*nfeat], rows, nfeat) {
		return 0, nil, false // raced a config the peek missed; serve inline
	}
	if w.failed {
		return s.errorResp2(sc, "model replaced during gather; retry")
	}
	s.finishCoalesced(sc, tid, -1, rows, int64(len(p)), parseStart, parseEnd)
	sc.resp = AppendBatchInferResp(sc.resp[:0], w.classes[:rows], w.version)
	s.encodeCoalesced(sc, -1, rows)
	return MsgBatchInfer, sc.resp, true
}

// errorResp2 adapts errorResp to the three-value coalesced-batch return.
func (s *Server) errorResp2(sc *srvConn, msg string) (MsgType, []byte, bool) {
	typ, resp := s.errorResp(sc, msg)
	return typ, resp, true
}
