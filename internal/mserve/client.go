// Client side of the serving protocol. One Client owns one connection and
// is safe for sequential use by one goroutine (the protocol is strict
// request/response); a load generator opens one Client per worker.
package mserve

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/dtrace"
	"repro/internal/telemetry/tsrec"
)

// ErrRemote wraps a MsgError response from the server; the connection
// stays usable after one.
var ErrRemote = errors.New("mserve: server error")

// Client is a serving-protocol connection.
type Client struct {
	c       net.Conn
	timeout time.Duration
	armed   time.Time   // when the connection deadline was last set; zero: not set
	fr      frameReader // response frames; payloads alias its buffer
	req     []byte      // request payload buffer; must not alias out
	out     []byte      // encoded request frame
	classes []uint16

	// Tracing state (EnableTracing). arena keeps the client's completed
	// request traces; tb is the in-place builder; wireSpan tells do() to
	// wrap the round trip in a StageWire span for the CURRENT traced
	// request only (control-plane calls on the same client stay
	// untraced).
	arena    *dtrace.Arena
	tb       dtrace.Builder
	wireSpan bool
}

// Dial connects to a serving endpoint on network ("tcp", "unix").
func Dial(network, addr string) (*Client, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(c), nil
}

// NewClient wraps an established connection.
func NewClient(c net.Conn) *Client {
	return &Client{c: c, timeout: 30 * time.Second}
}

// SetTimeout bounds each request round trip; 0 disables deadlines. The
// deadline is re-armed only once d/2 has passed since it was last set, so
// a round trip fails after at least d/2 and at most d without an answer.
// SetTimeout clears the deadline the previous timeout left armed.
func (cl *Client) SetTimeout(d time.Duration) {
	cl.timeout = d
	cl.armed = time.Time{}
	// A failure here means the connection is closed, which the next
	// request reports.
	_ = cl.c.SetDeadline(time.Time{})
}

// EnableTracing turns on client-side request tracing: every Infer and
// BatchInfer records a client→wire span tree into arena and stamps its
// TraceID (with ClientTraceIDBit set) into the request frame, so the
// server's spans join the same trace and `kml-ctl probe` can print the
// cross-process tree. nil disables. The per-request tracing cost is a
// few clock reads and one arena copy — the propagation path stays
// alloc-free (TestClientTracingAllocFree).
func (cl *Client) EnableTracing(arena *dtrace.Arena) { cl.arena = arena }

// Close closes the connection.
func (cl *Client) Close() error { return cl.c.Close() }

// do writes one request frame and reads the response frame, returning the
// response type and payload (aliasing the frame reader's buffer, valid
// until the next call).
func (cl *Client) do(typ MsgType, payload []byte) (MsgType, []byte, error) {
	if cl.timeout != 0 {
		if now := time.Now(); cl.armed.IsZero() || now.Sub(cl.armed) >= cl.timeout/2 {
			if err := cl.c.SetDeadline(now.Add(cl.timeout)); err != nil {
				return 0, nil, err
			}
			cl.armed = now
		}
	}
	cl.out = cl.out[:0]
	cl.out = AppendFrame(cl.out, typ, payload)
	ws := -1
	if cl.wireSpan {
		ws = cl.tb.Begin(dtrace.StageWire, 0, time.Now().UnixNano())
		cl.tb.SetAux(ws, int64(len(cl.out)))
	}
	if _, werr := cl.c.Write(cl.out); werr != nil {
		// A server refusing the connection writes its reason and closes,
		// which can beat this request to the socket: the write fails, but
		// the reason is still there to read, and is the better error.
		if _, _, err := cl.readResp(typ, -1); errors.Is(err, ErrRemote) {
			return MsgError, nil, err
		}
		return 0, nil, werr
	}
	return cl.readResp(typ, ws)
}

// readResp reads the response frame to a request of type typ, closing the
// wire span ws (-1: none).
func (cl *Client) readResp(typ MsgType, ws int) (MsgType, []byte, error) {
	h, payload, err := cl.fr.next(cl.c)
	if err != nil {
		return 0, nil, err
	}
	if ws >= 0 {
		cl.tb.End(ws, time.Now().UnixNano())
		cl.tb.SetValue(ws, int64(HeaderSize+len(payload)))
	}
	if h.Type == MsgError {
		return h.Type, nil, fmt.Errorf("%w: %s", ErrRemote, payload)
	}
	if h.Type != typ {
		return h.Type, nil, fmt.Errorf("%w: response type %d to request %d", ErrBadMessage, h.Type, typ)
	}
	return h.Type, payload, nil
}

// startTrace opens the client-side request trace when tracing is on,
// returning the TraceID to stamp into the request payload (0 when
// untraced). The root StageClient span covers the whole call.
func (cl *Client) startTrace() uint64 {
	if cl.arena == nil {
		return 0
	}
	id := dtrace.TraceID(uint64(cl.arena.NextID()) | ClientTraceIDBit)
	cl.tb.StartRoot(id, dtrace.StageClient, time.Now().UnixNano())
	return uint64(id)
}

// finishTrace closes and records the client-side request trace.
func (cl *Client) finishTrace(class, rows int64) {
	cl.tb.SetValue(0, class)
	cl.tb.SetAux(0, rows)
	cl.arena.Record(cl.tb.Finish(time.Now().UnixNano()))
}

// Infer classifies one feature vector on the deployed model, returning
// the class and the serving model version. With tracing enabled the call
// records a client trace (root/encode/wire/parse spans) whose ID the
// server's own spans join.
func (cl *Client) Infer(feats []float64) (class int, version uint64, err error) {
	tid := cl.startTrace()
	traced := tid != 0
	es := -1
	if traced {
		es = cl.tb.Begin(dtrace.StageEncode, 0, time.Now().UnixNano())
	}
	cl.req = AppendInferReq(cl.req[:0], tid, feats)
	if traced {
		cl.tb.End(es, time.Now().UnixNano())
		cl.tb.SetValue(es, int64(len(cl.req)))
		cl.wireSpan = true
	}
	_, resp, err := cl.do(MsgInfer, cl.req)
	cl.wireSpan = false
	if err != nil {
		return 0, 0, err // abandons the half-built trace; next Start resets
	}
	ps := -1
	if traced {
		ps = cl.tb.Begin(dtrace.StageParse, 0, time.Now().UnixNano())
	}
	c16, v, err := ParseInferResp(resp)
	if traced {
		cl.tb.End(ps, time.Now().UnixNano())
		cl.tb.SetValue(ps, int64(len(resp)))
		if err == nil {
			cl.finishTrace(int64(c16), 1)
		}
	}
	return int(c16), v, err
}

// BatchInfer classifies rows vectors of nfeat features (row-major in
// feats) in one round trip. The returned class slice is reused across
// calls; copy it to retain.
func (cl *Client) BatchInfer(feats []float64, rows, nfeat int) (classes []uint16, version uint64, err error) {
	if rows <= 0 || nfeat <= 0 || len(feats) < rows*nfeat {
		return nil, 0, fmt.Errorf("%w: batch shape %dx%d over %d floats", ErrBadMessage, rows, nfeat, len(feats))
	}
	tid := cl.startTrace()
	traced := tid != 0
	es := -1
	if traced {
		es = cl.tb.Begin(dtrace.StageEncode, 0, time.Now().UnixNano())
	}
	cl.req = AppendBatchInferReq(cl.req[:0], tid, feats, rows, nfeat)
	if traced {
		cl.tb.End(es, time.Now().UnixNano())
		cl.tb.SetValue(es, int64(len(cl.req)))
		cl.wireSpan = true
	}
	_, resp, err := cl.do(MsgBatchInfer, cl.req)
	cl.wireSpan = false
	if err != nil {
		return nil, 0, err
	}
	if rows > len(cl.classes) {
		cl.classes = make([]uint16, rows)
	}
	ps := -1
	if traced {
		ps = cl.tb.Begin(dtrace.StageParse, 0, time.Now().UnixNano())
	}
	n, v, err := ParseBatchInferResp(resp, cl.classes)
	if traced {
		cl.tb.End(ps, time.Now().UnixNano())
		cl.tb.SetValue(ps, int64(len(resp)))
		if err == nil {
			cl.finishTrace(-1, int64(n))
		}
	}
	if err != nil {
		return nil, 0, err
	}
	return cl.classes[:n], v, nil
}

// fetch runs one status round trip and decodes its answer, the zero T
// on a failed round trip.
func fetch[T any](cl *Client, typ MsgType, req []byte, parse func([]byte) (T, error)) (T, error) {
	_, resp, err := cl.do(typ, req)
	if err != nil {
		var zero T
		return zero, err
	}
	return parse(resp)
}

// Stats fetches the server's operational counters: the Stats view of
// its telemetry snapshot.
func (cl *Client) Stats() (Stats, error) {
	snap, err := cl.Metrics()
	return snap.Stats(), err
}

// Metrics fetches the server's telemetry snapshot: every registered
// metric (histograms with populated buckets) plus the flight recorder's
// retained decisions.
func (cl *Client) Metrics() (MetricsSnapshot, error) {
	return fetch(cl, MsgMetrics, nil, ParseMetrics)
}

// Traces fetches the server's retained decision traces, oldest first.
func (cl *Client) Traces() ([]dtrace.Trace, error) {
	return fetch(cl, MsgTraces, nil, dtrace.ParseTraces)
}

// LearnStatus fetches the online-learning controller's snapshot: state
// machine position, lifecycle counters, canary comparison, and the
// retrain-event history. A server without a controller answers the zero
// status.
func (cl *Client) LearnStatus() (LearnStatus, error) {
	return fetch(cl, MsgLearnStatus, nil, ParseLearnStatus)
}

// TimeSeries fetches the server's captured metric time series: counter
// deltas and histogram quantiles per capture interval, oldest first.
func (cl *Client) TimeSeries() (tsrec.Series, error) {
	return fetch(cl, MsgTimeSeries, nil, tsrec.ParseSeries)
}

// Blackbox fetches the black-box flight recorder's status. With sync
// the server captures, flushes, and fsyncs the box first, so the
// returned path names a file current to this call — the handle
// `kml-ctl postmortem` uses against a live server. A server without a black
// box answers the zero (disabled) status.
func (cl *Client) Blackbox(sync bool) (BlackboxStatus, error) {
	op := uint8(BlackboxStat)
	if sync {
		op = BlackboxSync
	}
	return fetch(cl, MsgBlackbox, AppendBlackboxReq(nil, op), ParseBlackboxStatus)
}

// Health reports whether the server is serving, the active version, and
// the deployed model's input width.
func (cl *Client) Health() (ok bool, version uint64, inDim int, err error) {
	_, resp, err := cl.do(MsgHealth, nil)
	if err != nil {
		return false, 0, 0, err
	}
	return ParseHealthResp(resp)
}
