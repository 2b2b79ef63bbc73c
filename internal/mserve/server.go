// The inference server. One goroutine per connection; each connection
// owns all of its request-scoped buffers (frame reader, feature and class
// slices, responses) plus a private model Instance, so the
// steady-state request loop performs no allocation and takes no lock —
// the deployed model is reached through one atomic Deployment load per
// request. Control-plane operations (Deploy, Rollback) go through the
// registry and swap the deployment atomically; in-flight requests finish
// on the snapshot they loaded.
package mserve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtrace"
	"repro/internal/memutil"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tsrec"
)

// Config parameterizes a Server.
type Config struct {
	// Registry is the backing model store (required). If it has an active
	// version, the server starts serving it immediately.
	Registry *Registry
	// MaxConns caps concurrent connections; 0 means 64.
	MaxConns int
	// ReadTimeout bounds the wait for the next request on an idle
	// connection; 0 means 30s.
	ReadTimeout time.Duration
	// WriteTimeout bounds one response write; 0 means 10s.
	WriteTimeout time.Duration
	// Arena, when set, provides admission control: each connection charges
	// ConnBytes, so a reservation cap turns memory pressure into refused
	// connections instead of unbounded growth (§3.1 memory reservation).
	Arena *memutil.Arena
	// ConnBytes is the accounted per-connection footprint; 0 means 64 KiB.
	ConnBytes int64
	// TraceCapacity sizes the request-trace arena (keep-latest); 0
	// means 256 traces.
	TraceCapacity int
	// DriftWindow is decisions per drift evaluation window; 0 means
	// dtrace.DefaultDriftWindow.
	DriftWindow int
	// TimeSeriesInterval is the capture period of the server's metric
	// time-series recorder (MsgTimeSeries); 0 means 1s.
	TimeSeriesInterval time.Duration
	// TimeSeriesCapacity is how many points the recorder retains; 0
	// means 256.
	TimeSeriesCapacity int
	// CoalesceWindow, when nonzero, enables cross-connection batch
	// coalescing: concurrent Infer/BatchInfer rows from different
	// connections are gathered for up to this long (50-200µs is the
	// useful range) and classified in one fused PredictBatch call.
	// Zero (the default) serves every request inline, as before.
	CoalesceWindow time.Duration
	// CoalesceMax caps gathered rows per coalesced batch; 0 means 64.
	// A batch reaching the cap executes immediately without waiting out
	// the window. Clamped to MaxBatchRows.
	CoalesceMax int
}

func (c Config) withDefaults() Config {
	if c.MaxConns == 0 {
		c.MaxConns = 64
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.ConnBytes == 0 {
		c.ConnBytes = 64 << 10
	}
	if c.TraceCapacity == 0 {
		c.TraceCapacity = 256
	}
	return c
}

// Server serves model inference over TCP or unix sockets.
type Server struct {
	cfg Config
	dep *Deployment[*Artifact]

	ctlMu sync.Mutex // serializes Deploy/Rollback against each other

	ln       net.Listener
	lnMu     sync.Mutex
	draining atomic.Bool
	wg       sync.WaitGroup
	connsMu  sync.Mutex
	conns    map[net.Conn]struct{}
	connPool sync.Pool // *srvConn, recycled across connections

	open atomic.Int64

	// Attribution counters live in the registry (not private atomics) so
	// the time-series recorder, /metrics and Stats read the same values —
	// one source of truth per number.
	inferences   *telemetry.Counter // mserve_inferences
	rows         *telemetry.Counter // mserve_rows
	errorsSent   *telemetry.Counter // mserve_errors
	accepted     *telemetry.Counter // mserve_accepted
	acceptErrors *telemetry.Counter // mserve_accept_errors
	connRejects  *telemetry.Counter // mserve_conn_rejects
	arenaRejects *telemetry.Counter // mserve_arena_rejects

	reg        *telemetry.Registry
	reqNanos   [numMsgTypes]*telemetry.Histogram // per-type latency, by request MsgType
	rxBytes    [numMsgTypes]*telemetry.Counter   // per-type request bytes (frames incl. header)
	txBytes    [numMsgTypes]*telemetry.Counter   // per-type response bytes
	queueNanos *telemetry.Histogram              // arrival→infer-start delay (incl. gather wait)
	rec        *tsrec.Recorder                   // metric time-series capture (MsgTimeSeries)
	flight     *telemetry.FlightRecorder[MetricsDecision]

	// Cross-connection batch coalescing (coalesce.go); nil when disabled.
	// The histogram records achieved batch sizes — the distribution that
	// proves the gather window is amortizing the fused kernel.
	coal            *coalescer
	coalesceBatches *telemetry.Counter // mserve_coalesce_batches
	coalesceRows    *telemetry.Counter // mserve_coalesce_rows
	coalesceHist    *telemetry.Histogram

	// learnSource, when set, snapshots the online-learning controller
	// for MsgLearnStatus; the controller lives outside mserve
	// (internal/olearn) and registers itself via SetLearnSource.
	learnSource atomic.Pointer[func() LearnStatus]

	// blackboxSource, when set, snapshots the black-box flight recorder
	// for MsgBlackbox; the recorder lives outside mserve
	// (internal/blackbox, wired by kml-served) and registers itself via
	// SetBlackboxSource. The bool argument requests a synced flush
	// before the snapshot (the BlackboxSync opcode).
	blackboxSource atomic.Pointer[func(sync bool) BlackboxStatus]

	// traces retains per-request span trees (root/parse/infer/encode)
	// for the inference endpoints; drift holds the monitor for the
	// CURRENTLY deployed model, rebuilt on every swap so its shape and
	// baseline always match what is serving.
	traces *dtrace.Arena
	drift  atomic.Pointer[dtrace.DriftMonitor]
}

// numMsgTypes sizes the per-request-type metric tables.
const numMsgTypes = int(MsgBlackbox) + 1

// reqMetricNames maps request MsgTypes to their per-type metric base
// names: "<base>_ns" is the latency histogram, "<base>_rx_bytes" /
// "<base>_tx_bytes" the byte counters. Index 0 and MsgError have no
// entry; the dispatch accounting skips them.
var reqMetricNames = [numMsgTypes]string{
	MsgInfer:       "mserve_infer",
	MsgBatchInfer:  "mserve_batch_infer",
	MsgHealth:      "mserve_health",
	MsgMetrics:     "mserve_metrics",
	MsgTraces:      "mserve_traces",
	MsgLearnStatus: "mserve_learn",
	MsgTimeSeries:  "mserve_timeseries",
	MsgBlackbox:    "mserve_blackbox",
}

// flightDepth is how many served decisions the flight recorder retains.
const flightDepth = 64

// NewServer builds a server over cfg.Registry and, if the registry has an
// active version, loads it for serving. The time-series recorder is
// started here and stopped by Shutdown.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, errors.New("mserve: nil registry")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		dep:    &Deployment[*Artifact]{},
		conns:  make(map[net.Conn]struct{}),
		reg:    telemetry.NewRegistry(),
		flight: telemetry.NewFlightRecorder[MetricsDecision](flightDepth),
		traces: dtrace.NewArena(cfg.TraceCapacity),
	}
	for typ, name := range reqMetricNames {
		if name != "" {
			s.reqNanos[typ] = s.reg.Histogram(name + "_ns")
			s.rxBytes[typ] = s.reg.Counter(name + "_rx_bytes")
			s.txBytes[typ] = s.reg.Counter(name + "_tx_bytes")
		}
	}
	s.queueNanos = s.reg.Histogram("mserve_queue_delay_ns")
	s.coalesceBatches = s.reg.Counter("mserve_coalesce_batches")
	s.coalesceRows = s.reg.Counter("mserve_coalesce_rows")
	s.coalesceHist = s.reg.Histogram("mserve_coalesce_batch")
	if cfg.CoalesceWindow > 0 {
		s.coal = newCoalescer(cfg.CoalesceWindow, cfg.CoalesceMax)
	}
	s.inferences = s.reg.Counter("mserve_inferences")
	s.rows = s.reg.Counter("mserve_rows")
	s.errorsSent = s.reg.Counter("mserve_errors")
	s.accepted = s.reg.Counter("mserve_accepted")
	s.acceptErrors = s.reg.Counter("mserve_accept_errors")
	s.connRejects = s.reg.Counter("mserve_conn_rejects")
	s.arenaRejects = s.reg.Counter("mserve_arena_rejects")
	// The time-series recorder watches the serving registry. The
	// readahead_* names belong to a co-located tuner (kml-served -sim)
	// instrumenting into MetricsRegistry(); resolving them here merely
	// pre-creates the series the tuner will feed — creation-on-first-use
	// makes the order irrelevant.
	rec, err := tsrec.New(s.reg, tsrec.Config{
		Interval: cfg.TimeSeriesInterval,
		Capacity: cfg.TimeSeriesCapacity,
		Counters: []string{
			"mserve_rows", "mserve_inferences", "mserve_errors",
			"mserve_accepted", "mserve_accept_errors", "readahead_decisions",
		},
		Hists: []string{
			"mserve_infer_ns", "mserve_batch_infer_ns",
			"mserve_queue_delay_ns", "mserve_coalesce_batch",
			"readahead_infer_ns",
		},
	})
	if err != nil {
		return nil, err
	}
	s.rec = rec
	s.reg.Func("mserve_decisions", func() int64 { return int64(s.flight.Cursor()) })
	s.reg.Func("mserve_active_version", func() int64 { return int64(s.dep.Version()) })
	s.reg.Func("mserve_conns", func() int64 { return s.open.Load() })
	s.reg.Func("mserve_deploys", func() int64 { return int64(cfg.Registry.Deploys()) })
	s.reg.Func("mserve_rollbacks", func() int64 { return int64(cfg.Registry.Rollbacks()) })
	s.reg.Func("mserve_max_conns", func() int64 { return int64(cfg.MaxConns) })
	arena := cfg.Arena
	if arena == nil {
		arena = &memutil.Arena{} // nothing charges it: reads 0
	}
	s.reg.Func("mserve_arena_live_bytes", arena.Live)
	s.reg.Func("mserve_arena_peak_bytes", arena.Peak)
	var window, maxRows int64 // 0 with coalescing off
	if s.coal != nil {
		window, maxRows = s.coal.window.Nanoseconds(), int64(s.coal.maxRows)
	}
	s.reg.Func("mserve_coalesce_window_ns", func() int64 { return window })
	s.reg.Func("mserve_coalesce_max_rows", func() int64 { return maxRows })
	s.rec.Start()
	if _, ok := cfg.Registry.Active(); ok {
		a, err := cfg.Registry.ActiveArtifact()
		if err != nil {
			s.rec.Stop()
			return nil, err
		}
		s.dep.Swap(a, a.Version.Number)
		s.installDrift(a)
	}
	return s, nil
}

// installDrift rebuilds the drift monitor for a freshly deployed
// artifact. The server has no training-time feature statistics for an
// arbitrary uploaded model, so the monitor self-baselines on its first
// window: drift is then "the traffic no longer looks like it did when
// this version went live", which is the operable signal a serving tier
// can actually compute. Gauges register once under mserve_drift and are
// re-pointed at the new monitor's windows.
func (s *Server) installDrift(a *Artifact) {
	if a.InDim <= 0 || a.OutDim <= 0 {
		s.drift.Store(nil)
		return
	}
	m := dtrace.NewDriftMonitor(dtrace.DriftConfig{
		Features: a.InDim,
		Classes:  a.OutDim,
		Window:   s.cfg.DriftWindow,
	})
	m.RegisterMetrics(s.reg, "mserve_drift")
	s.drift.Store(m)
}

// Deployment returns the server's hot-swap handle, for in-process readers
// that want to follow the served model (e.g. a co-located tuner).
func (s *Server) Deployment() *Deployment[*Artifact] { return s.dep }

// Registry returns the backing model store, for in-process control
// planes (the online-learning controller) that need to materialize
// artifacts of the versions they deploy.
func (s *Server) Registry() *Registry { return s.cfg.Registry }

// Deploy registers and activates a new model version, hot-swapping it
// into the serving path. In-flight requests finish on the old version.
func (s *Server) Deploy(kind ModelKind, name string, model []byte) (Version, error) {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	v, err := s.cfg.Registry.Put(kind, name, model)
	if err != nil {
		return Version{}, err
	}
	a, err := s.cfg.Registry.Artifact(v.Number)
	if err != nil {
		return Version{}, err
	}
	s.dep.Swap(a, v.Number)
	s.installDrift(a)
	return v, nil
}

// Rollback reverts to the previously active version and swaps it in.
func (s *Server) Rollback() (Version, error) {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	v, err := s.cfg.Registry.Rollback()
	if err != nil {
		return Version{}, err
	}
	a, err := s.cfg.Registry.Artifact(v.Number)
	if err != nil {
		return Version{}, err
	}
	s.dep.Swap(a, v.Number)
	s.installDrift(a)
	return v, nil
}

// Stats snapshots the server's operational counters.
func (s *Server) Stats() Stats { return s.Metrics().Stats() }

// MetricsRegistry exposes the server's telemetry registry so an
// embedding process (kml-served) can hang a debug HTTP listener or
// extra instrumentation off the same namespace.
func (s *Server) MetricsRegistry() *telemetry.Registry { return s.reg }

// Metrics snapshots the server's telemetry — every registered metric
// plus the flight recorder's retained decisions — in the form MsgMetrics
// serializes.
func (s *Server) Metrics() MetricsSnapshot {
	samples := s.reg.Snapshot()
	snap := MetricsSnapshot{Metrics: make([]Metric, 0, len(samples))}
	for _, smp := range samples {
		m := Metric{Name: smp.Name, Value: smp.Value}
		switch smp.Kind {
		case telemetry.KindCounter:
			m.Kind = MetricCounter
		case telemetry.KindHistogram:
			m.Kind = MetricHistogram
			m.Hist = smp.Hist
			m.Value = 0
		default: // gauges and func gauges flatten to gauge
			m.Kind = MetricGauge
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	snap.Decisions = s.flight.Snapshot()
	return snap
}

// TraceArena exposes the server's request-trace arena, so an embedding
// process (kml-served) can record co-located tuner decision traces into
// the same pool MsgTraces serves.
func (s *Server) TraceArena() *dtrace.Arena { return s.traces }

// Traces returns the retained request traces, oldest first.
func (s *Server) Traces() []dtrace.Trace { return s.traces.Snapshot() }

// SetLearnSource registers the online-learning controller's snapshot
// function for MsgLearnStatus; nil detaches. Safe to call while serving.
func (s *Server) SetLearnSource(fn func() LearnStatus) {
	if fn == nil {
		s.learnSource.Store(nil)
		return
	}
	s.learnSource.Store(&fn)
}

// LearnStatus snapshots the attached online-learning controller, or the
// zero status (state idle, no history) when none is attached — a server
// without a controller still answers MsgLearnStatus cleanly.
func (s *Server) LearnStatus() LearnStatus {
	if fn := s.learnSource.Load(); fn != nil {
		return (*fn)()
	}
	return LearnStatus{BaselinePM: -1, CanaryPM: -1}
}

// SetBlackboxSource registers the black-box flight recorder's status
// function for MsgBlackbox; nil detaches. The function is called with
// sync=true for BlackboxSync requests and must then flush + fsync the
// box before returning its status. Safe to call while serving.
func (s *Server) SetBlackboxSource(fn func(sync bool) BlackboxStatus) {
	if fn == nil {
		s.blackboxSource.Store(nil)
		return
	}
	s.blackboxSource.Store(&fn)
}

// Blackbox snapshots the attached black-box recorder, or the zero
// (disabled) status when none is attached — a server without a black
// box still answers MsgBlackbox cleanly.
func (s *Server) Blackbox(sync bool) BlackboxStatus {
	if fn := s.blackboxSource.Load(); fn != nil {
		return (*fn)(sync)
	}
	return BlackboxStatus{}
}

// acceptBackoff bounds the retry delay after a temporary Accept error
// (EMFILE, ECONNABORTED bursts): start small, double, cap — the accept
// loop must survive fd exhaustion rather than take the whole server
// down, and the counter makes the episode visible in telemetry.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

// Serve accepts connections on ln until the listener is closed (by
// Shutdown). It applies the connection limit and arena admission before
// spawning a handler. Accept errors are counted in mserve_accept_errors;
// temporary ones (in the net.Error sense) back off and retry, permanent
// ones end the loop.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	// A Shutdown that ran before the registration above had no listener
	// to close — without this check Serve would park in Accept forever
	// on a listener nobody will ever close again.
	if s.draining.Load() {
		_ = ln.Close()
		return nil
	}
	delay := time.Duration(0)
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			s.acceptErrors.Add(1)
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() { //nolint:staticcheck // Temporary is exactly the transient-accept signal this loop needs
				if delay == 0 {
					delay = acceptBackoffMin
				} else if delay *= 2; delay > acceptBackoffMax {
					delay = acceptBackoffMax
				}
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		s.accepted.Add(1)
		if s.draining.Load() {
			_ = c.Close()
			continue
		}
		if s.open.Load() >= int64(s.cfg.MaxConns) {
			s.connRejects.Add(1)
			s.refuse(c, "connection limit reached")
			continue
		}
		if s.cfg.Arena != nil && !s.cfg.Arena.Charge(s.cfg.ConnBytes) {
			s.arenaRejects.Add(1)
			s.refuse(c, "server memory reservation exhausted")
			continue
		}
		s.open.Add(1)
		s.connsMu.Lock()
		s.conns[c] = struct{}{}
		s.connsMu.Unlock()
		s.wg.Add(1)
		go s.handle(c)
	}
}

// refuse answers an unadmitted connection with one error frame and closes
// it, so clients see the reason instead of a bare RST.
func (s *Server) refuse(c net.Conn, msg string) {
	s.errorsSent.Add(1)
	_ = c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	_, _ = c.Write(AppendFrame(nil, MsgError, []byte(msg)))
	_ = c.Close()
}

// Shutdown gracefully drains the server: stop accepting, nudge idle
// connections off their blocking reads, let in-flight requests finish,
// then stop the time-series recorder. Connections still open after the
// timeout are force-closed.
func (s *Server) Shutdown(timeout time.Duration) {
	s.draining.Store(true)
	s.lnMu.Lock()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.lnMu.Unlock()
	// Unblock handlers parked in a read waiting for the next request; a
	// handler mid-request keeps its write deadline, finishes, and sees
	// draining before it reads again.
	s.connsMu.Lock()
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.connsMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.connsMu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.connsMu.Unlock()
		<-done
	}
	s.rec.Stop()
}

// srvConn is one connection's request-scoped state. Buffers grow to the
// deployed model's shape on the first request and are reused afterwards,
// so the steady-state loop allocates nothing.
type srvConn struct {
	s          *Server
	fr         frameReader // request frames; payloads alias its buffer
	resp       []byte
	out        []byte
	feats      []float64
	rowClasses []int
	inst       *Instance
	tb         dtrace.Builder // per-connection span builder (alloc-free)
	arrivalNS  int64          // stamp of the read that completed the current request
	queueEndNS int64          // handler start, or the coalesced batch's start
	done       time.Time      // an inference's encode end; zero for other requests
	cw         coalWaiter     // the current inference request's classes and stamps
}

// armDeadlines sets c's read and write deadlines relative to now.
func (s *Server) armDeadlines(c net.Conn, now time.Time) error {
	if err := c.SetReadDeadline(now.Add(s.cfg.ReadTimeout)); err != nil {
		return err
	}
	return c.SetWriteDeadline(now.Add(s.cfg.WriteTimeout))
}

// handle serves one connection: read a frame, answer it with one Write,
// read the next. Frames that one read brought together are answered in
// order without reading again.
//
// Deadlines are armed when the connection starts and re-armed only when a
// request finishes at least rearm after the last arming, which takes no
// clock read of its own: the check reuses the latency stamp, which for an
// inference is its encode end (see infer). A request
// therefore finishes less than rearm after the deadlines were armed, so
// the connection closes between ReadTimeout/2 and ReadTimeout after the
// last request finished (or after it opened), and every write has at
// least WriteTimeout/2 left.
func (s *Server) handle(c net.Conn) {
	defer func() {
		_ = c.Close()
		s.connsMu.Lock()
		delete(s.conns, c)
		s.connsMu.Unlock()
		s.open.Add(-1)
		if s.cfg.Arena != nil {
			s.cfg.Arena.Release(s.cfg.ConnBytes)
		}
		s.wg.Done()
	}()
	// Per-connection buffers are pooled across connections: a reconnecting
	// client inherits sized buffers (and often a warm model instance —
	// instanceFor revalidates the version), so short-lived connections don't
	// pay the warm-up allocations again.
	sc, _ := s.connPool.Get().(*srvConn)
	if sc == nil {
		sc = &srvConn{s: s}
	}
	defer s.connPool.Put(sc)
	sc.fr.reset()
	sc.fr.stamp = true
	rearm := min(s.cfg.ReadTimeout, s.cfg.WriteTimeout) / 2
	armed := time.Now()
	if s.armDeadlines(c, armed) != nil {
		return
	}
	for {
		if s.draining.Load() {
			return
		}
		h, payload, err := sc.fr.next(c)
		if err != nil {
			return // EOF, idle timeout, drain nudge, or broken framing
		}
		// Arrival is the read that completed the frame: everything between
		// there and dispatch (CRC, the frames ahead of it in the same read,
		// scheduling) is attributed queueing delay, and so is a coalesced
		// inference's gather wait, which moves queueEndNS to the batch start.
		sc.arrivalNS = sc.fr.readNS
		start := time.Now()
		sc.queueEndNS = start.UnixNano()
		sc.done = time.Time{}
		known := int(h.Type) < numMsgTypes && s.reqNanos[h.Type] != nil
		if known {
			s.rxBytes[h.Type].Add(uint64(HeaderSize + len(payload)))
		}
		typ, resp := s.dispatch(sc, h.Type, payload)
		s.queueNanos.Observe(sc.queueEndNS - sc.arrivalNS)
		end := sc.done
		if end.IsZero() {
			end = time.Now()
		}
		if known {
			s.reqNanos[h.Type].Observe(end.Sub(start).Nanoseconds())
		}
		sc.out = AppendFrame(sc.out[:0], typ, resp)
		if known {
			s.txBytes[h.Type].Add(uint64(len(sc.out)))
		}
		if end.Sub(armed) >= rearm {
			armed = end
			if s.armDeadlines(c, armed) != nil {
				return
			}
		}
		if _, err := c.Write(sc.out); err != nil {
			return
		}
	}
}

// dispatch handles one request and returns the response (type, payload).
// The returned payload aliases sc.resp.
func (s *Server) dispatch(sc *srvConn, typ MsgType, p []byte) (MsgType, []byte) {
	switch typ {
	case MsgInfer, MsgBatchInfer:
		return s.infer(sc, typ, p)
	case MsgMetrics:
		sc.resp = AppendMetrics(sc.resp[:0], s.Metrics())
		return MsgMetrics, sc.resp
	case MsgTraces:
		sc.resp = dtrace.AppendTraces(sc.resp[:0], s.Traces())
		return MsgTraces, sc.resp
	case MsgLearnStatus:
		sc.resp = AppendLearnStatus(sc.resp[:0], s.LearnStatus())
		return MsgLearnStatus, sc.resp
	case MsgTimeSeries:
		sc.resp = tsrec.AppendSeries(sc.resp[:0], s.TimeSeries())
		return MsgTimeSeries, sc.resp
	case MsgBlackbox:
		op, err := ParseBlackboxReq(p)
		if err != nil {
			return s.errorResp(sc, "bad blackbox payload")
		}
		sc.resp = AppendBlackboxStatus(sc.resp[:0], s.Blackbox(op == BlackboxSync))
		return MsgBlackbox, sc.resp
	case MsgHealth:
		snap := s.dep.Load()
		if snap == nil {
			sc.resp = AppendHealthResp(sc.resp[:0], false, 0, 0)
			return MsgHealth, sc.resp
		}
		ok := !s.draining.Load()
		sc.resp = AppendHealthResp(sc.resp[:0], ok, snap.Version, snap.Model.InDim)
		return MsgHealth, sc.resp
	default:
		return s.errorResp(sc, fmt.Sprintf("unknown message type %d", typ))
	}
}

// TimeSeries snapshots the server's captured metric time series — the
// throughput/latency/queue record MsgTimeSeries serves and `kml-ctl top`
// renders.
func (s *Server) TimeSeries() tsrec.Series { return s.rec.Series() }

// TimeSeriesRecorder exposes the recorder so an embedding process can
// tick it manually in tests or force a capture before shutdown.
func (s *Server) TimeSeriesRecorder() *tsrec.Recorder { return s.rec }

// instanceFor returns inst when it serves snap's version and a fresh
// instance of snap's model otherwise — the cold half of a hot swap, paid
// once per holder (connection or gather arena) per deploy, and only a
// scratch allocation: the artifact was parsed and compiled when it was
// loaded.
func instanceFor(inst *Instance, snap *Snapshot[*Artifact]) (*Instance, error) {
	if inst != nil && inst.Version() == snap.Version {
		return inst, nil
	}
	return snap.Model.Instantiate()
}

// classify runs one fused forward pass over rows feature vectors and
// feeds the drift monitor. For one row it does the work of Predict and
// Observe.
func (s *Server) classify(inst *Instance, feats []float64, rows, nfeat int, classes []int) {
	inst.PredictBatch(feats, rows, classes)
	if m := s.drift.Load(); m != nil {
		m.ObserveBatch(feats, rows, nfeat, classes)
	}
}

// infer is the one request path for MsgInfer and MsgBatchInfer; a
// MsgInfer is a 1-row request. It parses, checks the width against the
// deployed model, and classifies the rows: a request below the gather
// capacity joins a coalesced batch, any other runs inline. Then it
// counts, encodes, records the decision and traces the request once,
// from the stamps taken on the way. Only successful requests reach the
// trace arena. The steady state allocates nothing
// (TestBatchInferAllocFree, TestCoalesceAllocFree).
//
// Each stage boundary is one clock read, shared by the stage it ends and
// the one it starts: the handler start begins parsing, the parse end
// begins inference, the inference end begins encoding, and the encode end
// is the handler's latency stamp (sc.done). An inline request so takes
// five reads with the frame's arrival, and its stage spans tile its root.
// A coalesced request ends its inference span with the batch's end, taken
// by the executor, and starts encoding at its own wake-up read, so the
// encode span does not absorb the gather wake-up.
func (s *Server) infer(sc *srvConn, typ MsgType, p []byte) (MsgType, []byte) {
	snap := s.dep.Load()
	if snap == nil {
		return s.errorResp(sc, "no model deployed")
	}
	inDim := snap.Model.InDim
	parseStart := sc.queueEndNS // the handler start
	rows, nfeat, tid, err := sc.parse(typ, p, inDim)
	parseEnd := time.Now().UnixNano()
	if err != nil && typ == MsgInfer {
		return s.errorResp(sc, "bad infer payload")
	}
	if err != nil {
		return s.errorResp(sc, "bad batch payload")
	}
	if nfeat != inDim {
		return s.errorResp(sc, fmt.Sprintf("feature count %d, model wants %d", nfeat, inDim))
	}
	w := &sc.cw
	if cap(w.classes) < rows {
		w.classes = make([]uint16, rows)
	}
	w.classes = w.classes[:rows]
	feats := sc.feats[:rows*nfeat]
	var encStart int64
	if s.coal != nil && rows < s.coal.maxRows {
		s.coal.submit(s, w, feats, rows, nfeat)
		if w.failed {
			return s.errorResp(sc, "model replaced during gather; retry")
		}
		sc.queueEndNS = w.startNS
		encStart = time.Now().UnixNano()
	} else {
		inst, err := instanceFor(sc.inst, snap)
		if err != nil {
			return s.errorResp(sc, fmt.Sprintf("instantiate v%d: %v", snap.Version, err))
		}
		sc.inst = inst
		if len(sc.rowClasses) < rows {
			sc.rowClasses = make([]int, rows)
		}
		w.startNS = parseEnd
		s.classify(inst, feats, rows, nfeat, sc.rowClasses[:rows])
		w.endNS = time.Now().UnixNano()
		encStart = w.endNS
		demuxClasses(w.classes, sc.rowClasses[:rows])
		w.version, w.batchRows = inst.Version(), rows
	}
	class := int64(-1) // no single class for a batch
	if typ == MsgInfer {
		class = int64(w.classes[0])
	}
	s.inferences.Add(1)
	s.rows.Add(uint64(rows))
	if typ == MsgInfer {
		sc.resp = AppendInferResp(sc.resp[:0], w.classes[0], w.version)
	} else {
		sc.resp = AppendBatchInferResp(sc.resp[:0], w.classes, w.version)
	}
	sc.done = time.Now()
	encEnd := sc.done.UnixNano()
	d := MetricsDecision{TimeNanos: uint64(encEnd), Version: w.version, Class: int32(class), Rows: uint32(rows)}
	s.flight.Record(&d)

	// The root starts at arrival. A caller that stamped its TraceID into
	// the payload owns the trace (the cross-process join); an untraced
	// request gets a locally minted ID.
	id := dtrace.TraceID(tid)
	if id == 0 {
		id = s.traces.NextID()
	}
	sc.tb.Start(id, sc.arrivalNS)
	sc.tb.SetValue(0, class)
	sc.tb.SetAux(0, int64(rows))
	sc.span(dtrace.StageQueue, sc.arrivalNS, sc.queueEndNS, sc.queueEndNS-sc.arrivalNS, 0)
	sc.span(dtrace.StageParse, parseStart, parseEnd, int64(len(p)), 0)
	sc.span(dtrace.StageInfer, w.startNS, w.endNS, class, dtrace.PackInferAux(w.version, w.batchRows))
	sc.span(dtrace.StageEncode, encStart, encEnd, int64(len(sc.resp)), 0)
	s.traces.Record(sc.tb.Finish(encEnd))
	return typ, sc.resp
}

// parse decodes an inference request into sc.feats, which holds at least
// the deployed width. A batch whose rows do not fit grows the buffer to
// rows×inDim and parses again — a cold path, connections converge on the
// deployed model's shape. Rows are bounded by MaxBatchRows, so a lying
// header cannot size the buffer beyond MaxBatchRows vectors.
func (sc *srvConn) parse(typ MsgType, p []byte, inDim int) (rows, nfeat int, traceID uint64, err error) {
	if len(sc.feats) < inDim {
		sc.feats = make([]float64, inDim)
	}
	if typ == MsgInfer {
		nfeat, traceID, err = ParseInferReq(p, sc.feats)
		return 1, nfeat, traceID, err
	}
	rows, nfeat, traceID, err = ParseBatchInferReq(p, sc.feats)
	if err != nil && rows <= MaxBatchRows && rows*inDim > len(sc.feats) {
		sc.feats = make([]float64, rows*inDim)
		rows, nfeat, traceID, err = ParseBatchInferReq(p, sc.feats)
	}
	return rows, nfeat, traceID, err
}

// span adds one finished child span under the request's root.
func (sc *srvConn) span(stage dtrace.Stage, start, end, value, aux int64) {
	i := sc.tb.Begin(stage, 0, start)
	sc.tb.End(i, end)
	sc.tb.SetValue(i, value)
	sc.tb.SetAux(i, aux)
}

func (s *Server) errorResp(sc *srvConn, msg string) (MsgType, []byte) {
	s.errorsSent.Add(1)
	sc.resp = append(sc.resp[:0], msg...)
	return MsgError, sc.resp
}
