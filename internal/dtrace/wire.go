// Binary encoding of trace batches, the MsgTraces payload and the black
// box's trace records. The codec contract is internal/wire's (DESIGN.md
// "Wire encodings").
//
// Layout:
//
//	u16 ntraces                      (<= MaxWireTraces)
//	per trace:
//	  u64 id
//	  u8  nspans                     (1..MaxTraceSpans)
//	  per span:
//	    u8  stage                    (< NumStages)
//	    u8  parent                   (1-based, references an earlier span)
//	    u64 value | u64 aux | u64 start | u64 end
package dtrace

import (
	"errors"

	"repro/internal/wire"
)

// MaxWireTraces bounds one payload: 512 full traces encode to ~140 KiB,
// comfortably inside mserve's 1 MiB MaxPayload.
const MaxWireTraces = 512

const spanWireSize = 1 + 1 + 8 + 8 + 8 + 8

// ErrBadTraceWire reports a malformed or non-canonical trace payload.
var ErrBadTraceWire = errors.New("dtrace: malformed trace payload")

// AppendTraces appends the canonical encoding of traces to dst. Traces
// the wire format cannot represent (empty, invalid stage or parent) are
// skipped, and at most MaxWireTraces are encoded — newest last, oldest
// dropped first, matching the arena's keep-latest policy.
func AppendTraces(dst []byte, traces []Trace) []byte {
	return wire.Append(dst, wire.Newest(encodable(traces), MaxWireTraces), tracesLayout)
}

// ParseTraces decodes a canonical trace payload. It rejects truncated
// input, trailing bytes, span counts outside 1..MaxTraceSpans, unknown
// stages, and forward parent references.
func ParseTraces(b []byte) ([]Trace, error) {
	return wire.Parse(b, tracesLayout, ErrBadTraceWire)
}

func tracesLayout(c *wire.Codec, ts *[]Trace) {
	wire.List16(c, ts, MaxWireTraces, 8+1+spanWireSize, traceLayout)
}

func traceLayout(c *wire.Codec, t *Trace) {
	c.U64((*uint64)(&t.ID))
	c.U8(&t.N)
	if !c.Check(t.N >= 1 && int(t.N) <= MaxTraceSpans) {
		return
	}
	for j := range t.Spans[:t.N] {
		s := &t.Spans[j]
		c.U8((*uint8)(&s.Stage))
		c.U8(&s.Parent)
		c.Check(s.Stage < NumStages && int(s.Parent) <= j)
		for _, v := range [...]*int64{&s.Value, &s.Aux, &s.Start, &s.End} {
			c.I64(v)
		}
	}
}

// encodable returns the traces the format can represent, copying only
// when it has to drop one.
func encodable(ts []Trace) []Trace {
	for i := range ts {
		if !ts[i].wireOK() {
			out := append([]Trace(nil), ts[:i]...)
			for j := i + 1; j < len(ts); j++ {
				if ts[j].wireOK() {
					out = append(out, ts[j])
				}
			}
			return out
		}
	}
	return ts
}
