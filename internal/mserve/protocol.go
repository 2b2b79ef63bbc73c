// Message payloads. Requests and responses share a message type; the
// server echoes the request type on success and answers MsgError (payload:
// UTF-8 message) on an application-level failure, keeping the connection
// usable. Frame-level failures (bad magic, CRC, version skew) kill the
// connection instead — the stream can no longer be trusted.
//
// Every payload is a layout over internal/wire's Codec: little-endian
// integers and IEEE-754 float bit patterns, the same conventions as the
// KML model file format, with one declaration per message serving both
// its encoder and its decoder.
package mserve

import (
	"errors"

	"repro/internal/wire"
)

// MsgType identifies a frame's message.
type MsgType uint8

// Protocol messages.
const (
	// MsgInfer: request u64 traceid | u16 nfeat | nfeat×f64;
	// response u16 class | u64 version. traceid 0 means the caller is
	// not tracing; a nonzero ID joins the server's request spans to the
	// client's trace (cross-process propagation).
	MsgInfer MsgType = 1
	// MsgBatchInfer: request u64 traceid | u32 rows | u16 nfeat |
	// rows·nfeat×f64; response u32 rows | u64 version | rows×u16 class.
	MsgBatchInfer MsgType = 2
	// Types 3, 4 and 5 are unassigned; a server answers them as unknown.

	// MsgHealth: empty request; response u8 ok (0 or 1) | u64 version |
	// u16 indim.
	MsgHealth MsgType = 6
	// MsgMetrics: empty request; response is the telemetry snapshot
	// (layout in metrics.go). The Stats counters are a view of it
	// (MetricsSnapshot.Stats).
	MsgMetrics MsgType = 7
	// MsgTraces: empty request; response is the server's retained
	// decision traces (layout in dtrace/wire.go).
	MsgTraces MsgType = 8
	// MsgLearnStatus: empty request; response is the online-learning
	// controller's snapshot (layout in learnstatus.go). A server with no
	// controller answers the zero status.
	MsgLearnStatus MsgType = 9
	// MsgTimeSeries: empty request; response is the server's captured
	// metric time series (layout in tsrec/wire.go). A server with no
	// recorder answers the empty series.
	MsgTimeSeries MsgType = 10
	// MsgBlackbox: request u8 op (BlackboxStat | BlackboxSync);
	// response is the black-box flight recorder's status (layout in
	// blackboxmsg.go). BlackboxSync forces a capture + synced flush
	// before answering, so the returned path names a file whose contents
	// are current — the hook `kml-ctl postmortem` uses to dump a still-live
	// server. A server with no black box attached answers the zero
	// (disabled) status.
	MsgBlackbox MsgType = 11
	// MsgError: server→client only; payload is a UTF-8 message.
	MsgError MsgType = 0x7F
)

// ClientTraceIDBit is OR-ed into every TraceID a client stamps into an
// inference request, so client-minted IDs (which count up from 1, just
// like the server arena's own mint) can never collide with the IDs the
// server assigns to untraced requests. One ID namespace per direction;
// `kml-ctl probe` matches joined traces on exact equality.
const ClientTraceIDBit uint64 = 1 << 63

// ErrBadMessage reports a payload that does not decode as its declared
// message type.
var ErrBadMessage = errors.New("mserve: bad message payload")

// MaxBatchRows bounds one BatchInfer request. With the 4-feature readahead
// model a maximal batch is ~256 KB, under MaxPayload.
const MaxBatchRows = 8192

// The layouts below follow the MsgType comments above. On the inference
// messages a decoder fills the caller-owned slice, whose length bounds the
// count it accepts.

//kml:hotpath
func inferReqLayout(c *wire.Codec, traceID *uint64, feats []float64) int {
	n := len(feats)
	c.U64(traceID)
	c.Len16(&n, len(feats), 8)
	if c.Check(n != 0) {
		c.F64s(feats[:n])
	}
	return n
}

// AppendInferReq appends a single-inference request payload. traceID 0
// means "not tracing"; a client propagating its dtrace TraceID stamps it
// here (with ClientTraceIDBit set) so the server joins its spans.
func AppendInferReq(dst []byte, traceID uint64, feats []float64) []byte {
	c := wire.Encoder(dst)
	inferReqLayout(&c, &traceID, feats)
	return c.Bytes()
}

// ParseInferReq decodes a single-inference request into dst and returns
// the feature count and the caller's trace ID (0 if untraced). It runs
// once per request on the serving path: the caller owns dst and grows it
// on ErrBadMessage when n exceeds cap (a cold path — connections
// converge on the deployed model's width).
//
//kml:hotpath
func ParseInferReq(p []byte, dst []float64) (n int, traceID uint64, err error) {
	c := wire.Decoder(p)
	n = inferReqLayout(&c, &traceID, dst)
	return n, traceID, c.End(ErrBadMessage)
}

//kml:hotpath
func inferRespLayout(c *wire.Codec, class *uint16, version *uint64) {
	c.U16(class)
	c.U64(version)
}

// AppendInferResp appends a single-inference response payload.
//
//kml:hotpath
func AppendInferResp(dst []byte, class uint16, version uint64) []byte {
	c := wire.Encoder(dst)
	inferRespLayout(&c, &class, &version)
	return c.Bytes()
}

// ParseInferResp decodes a single-inference response.
func ParseInferResp(p []byte) (class uint16, version uint64, err error) {
	c := wire.Decoder(p)
	inferRespLayout(&c, &class, &version)
	return class, version, c.End(ErrBadMessage)
}

//kml:hotpath
func batchInferReqLayout(c *wire.Codec, traceID *uint64, rows *uint32, nfeat *uint16, feats []float64) {
	c.U64(traceID)
	c.U32(rows)
	c.U16(nfeat)
	total := int(*rows) * int(*nfeat)
	if c.Check(*rows != 0 && *nfeat != 0 && *rows <= MaxBatchRows && total <= len(feats)) {
		c.F64s(feats[:total])
	}
}

// AppendBatchInferReq appends a batched-inference request: rows vectors of
// nfeat features, flattened row-major in feats. traceID follows the same
// propagation contract as AppendInferReq.
func AppendBatchInferReq(dst []byte, traceID uint64, feats []float64, rows, nfeat int) []byte {
	c, r, f := wire.Encoder(dst), uint32(rows), uint16(nfeat)
	batchInferReqLayout(&c, &traceID, &r, &f, feats)
	return c.Bytes()
}

// ParseBatchInferReq decodes a batched request into dst (row-major) and
// returns (rows, nfeat, traceID). Like ParseInferReq, dst is caller-owned
// and grown off the hot path on ErrBadMessage.
//
//kml:hotpath
func ParseBatchInferReq(p []byte, dst []float64) (rows, nfeat int, traceID uint64, err error) {
	var r uint32
	var f uint16
	c := wire.Decoder(p)
	batchInferReqLayout(&c, &traceID, &r, &f, dst)
	return int(r), int(f), traceID, c.End(ErrBadMessage)
}

//kml:hotpath
func batchInferRespLayout(c *wire.Codec, rows *uint32, version *uint64, classes []uint16) {
	c.U32(rows)
	c.U64(version)
	if c.Check(*rows <= MaxBatchRows && int(*rows) <= len(classes)) {
		c.U16s(classes[:*rows])
	}
}

// AppendBatchInferResp appends a batched response for classes[:rows].
//
//kml:hotpath
func AppendBatchInferResp(dst []byte, classes []uint16, version uint64) []byte {
	c, rows := wire.Encoder(dst), uint32(len(classes))
	batchInferRespLayout(&c, &rows, &version, classes)
	return c.Bytes()
}

// ParseBatchInferResp decodes a batched response into classes, which must
// hold the request's row count, and returns (rows, version).
func ParseBatchInferResp(p []byte, classes []uint16) (rows int, version uint64, err error) {
	var r uint32
	c := wire.Decoder(p)
	batchInferRespLayout(&c, &r, &version, classes)
	return int(r), version, c.End(ErrBadMessage)
}

func healthLayout(c *wire.Codec, ok *bool, version *uint64, inDim *uint16) {
	c.Bool(ok)
	c.U64(version)
	c.U16(inDim)
}

// AppendHealthResp appends the health payload.
func AppendHealthResp(dst []byte, ok bool, version uint64, inDim int) []byte {
	c, d := wire.Encoder(dst), uint16(inDim)
	healthLayout(&c, &ok, &version, &d)
	return c.Bytes()
}

// ParseHealthResp decodes a health payload.
func ParseHealthResp(p []byte) (ok bool, version uint64, inDim int, err error) {
	var d uint16
	c := wire.Decoder(p)
	healthLayout(&c, &ok, &version, &d)
	return ok, version, int(d), c.End(ErrBadMessage)
}
