// Package dtrace is the causal layer over the tuner's closed loop: one
// Trace per decision window, child spans for each stage the decision
// passed through (feature aggregation, normalization, inference, the
// readahead change applied to the device) and a follow-up span that
// samples the cache hit-rate over the NEXT window, so every decision
// carries its own outcome attribution. The primitives in this file obey
// the same kernel-portability constraints as internal/telemetry: fixed
// span slots inside a value-type Trace, integer-only fields, and
// zero-allocation recording on the decision path.
//
//kml:kernelspace
package dtrace

// TraceID identifies one decision window across every span it produced.
// IDs are minted per arena (see Arena.NextID) and are unique within a
// process, not across restarts.
type TraceID uint64

// Stage labels what a span measured.
type Stage uint8

// Span stages, in decision-path order. Parse and Encode appear only in
// server-side request traces (mserve), never in tuner decision traces.
const (
	// StageDecision is the root span covering one whole decision.
	StageDecision Stage = iota
	// StageFeature covers draining the event window and emitting the
	// raw candidate feature vector.
	StageFeature
	// StageNormalize covers Z-score normalization of the selected
	// features.
	StageNormalize
	// StageInfer covers the model forward pass.
	StageInfer
	// StageApply covers pushing the chosen readahead size to the
	// device.
	StageApply
	// StageOutcome spans the WINDOW AFTER the decision and records the
	// cache hit-rate it produced — the decision's reward signal.
	StageOutcome
	// StageParse covers request-payload decoding in the serving path.
	StageParse
	// StageEncode covers response encoding in the serving path.
	StageEncode
	// StageQueue covers the time a request spent between arriving on the
	// wire (the read that completed its frame) and its handler starting.
	// A coalesced request has a second one after its parse: the gather
	// wait, from the parse end to the start of its batch's forward pass.
	StageQueue
	// StageClient is the root span of a CLIENT-side request trace: one
	// whole Infer/BatchInfer call as the caller experienced it. When the
	// client stamps its TraceID into the request frame, the server's
	// spans join this trace and `kml-ctl probe` can print the cross-process
	// tree.
	StageClient
	// StageWire covers the client's request write through the response
	// read — wire time plus everything the server did. The gap between
	// a wire span and the joined server root span is network and
	// scheduling overhead.
	StageWire
	// NumStages bounds the valid Stage values.
	NumStages
)

var stageNames = [NumStages]string{
	"decision", "feature", "normalize", "infer",
	"apply", "outcome", "parse", "encode",
	"queue", "client", "wire",
}

// String returns the stage name.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "stage?"
}

// MaxTraceSpans is the fixed span capacity of a Trace. The tuner path
// uses six (root + feature/normalize/infer/apply/outcome), the serving
// path five (root + queue/parse/infer/encode) or, coalesced, six (a
// second queue span, the gather wait, after parse) and the client path
// four (root + encode/wire/parse), so eight leaves headroom without
// bloating the arena slots.
const MaxTraceSpans = 8

// Span is one timed stage of a decision. Start/End are wall-clock
// UnixNano stamps taken by the caller (the span layer never reads the
// clock itself, keeping it portable to environments with their own
// timebase). Value and Aux carry stage-specific integer attributes:
//
//	decision:  Value=predicted class, Aux=virtual decision time (ns)
//	feature:   Value=events drained from the window
//	normalize: Value=features normalized
//	infer:     Value=predicted class (-1 for a batch), Aux=model version;
//	           serving spans pack the forward pass's row count over the
//	           version (PackInferAux/UnpackInferAux), which a tuner's bare
//	           version unpacks as 0 rows
//	apply:     Value=new readahead sectors, Aux=previous sectors
//	outcome:   Value=hit-rate delta (per-mille, vs previous window),
//	           Aux=absolute next-window hit rate (per-mille, -1 unknown)
//	parse:     Value=request payload bytes
//	encode:    Value=response payload bytes
//	queue:     Value=queue delay (ns, duplicates Duration for filters)
//	client:    Value=predicted class (-1 for a batch), Aux=rows
//	wire:      Value=response frame bytes, Aux=request frame bytes
type Span struct {
	Start  int64
	End    int64
	Value  int64
	Aux    int64
	Stage  Stage
	Parent uint8 // 1-based index of the parent span; 0 = no parent (root)
}

// Duration returns End-Start in nanoseconds (0 if the span never ended).
func (s *Span) Duration() int64 {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Trace is one decision's complete span tree in a fixed-size value —
// the arena slot type. Spans[0] is always the root; children reference
// parents by 1-based index, so a parent always precedes its children.
type Trace struct {
	ID    TraceID
	N     uint8 // spans in use (0 = empty slot)
	Spans [MaxTraceSpans]Span
}

// Used returns the populated spans (a view, not a copy).
func (t *Trace) Used() []Span { return t.Spans[:t.N] }

// Root returns the root span, or nil for an empty trace.
func (t *Trace) Root() *Span {
	if t.N == 0 {
		return nil
	}
	return &t.Spans[0]
}

// Complete reports whether every span in the trace was ended — the
// smoke test's definition of "a complete span tree".
func (t *Trace) Complete() bool {
	if t.N == 0 {
		return false
	}
	for i := 0; i < int(t.N); i++ {
		if t.Spans[i].End < t.Spans[i].Start {
			return false
		}
	}
	return true
}

// wireOK reports whether the trace is representable in the canonical
// wire format: at least the root span, span count within the fixed
// capacity, every stage valid, and every parent reference pointing at
// an EARLIER span (so decoders can build the tree in one pass).
func (t *Trace) wireOK() bool {
	if t.N < 1 || int(t.N) > MaxTraceSpans {
		return false
	}
	for i := 0; i < int(t.N); i++ {
		s := &t.Spans[i]
		if s.Stage >= NumStages {
			return false
		}
		if int(s.Parent) > i {
			return false
		}
	}
	return true
}

// Builder accumulates one trace on the decision path. It is a plain
// value embedded in its owner (tuner, server connection) — no pointers,
// no allocation — and is reused across decisions: Finish hands the
// completed trace out by value and resets the builder.
type Builder struct {
	t Trace
}

// Start opens a new trace with the root decision span. Any trace under
// construction is discarded.
//
//kml:hotpath
func (b *Builder) Start(id TraceID, startNS int64) {
	b.StartRoot(id, StageDecision, startNS)
}

// StartRoot opens a new trace whose root span carries an explicit stage —
// StageClient for client-side request traces, StageDecision everywhere
// else. Any trace under construction is discarded.
//
//kml:hotpath
func (b *Builder) StartRoot(id TraceID, stage Stage, startNS int64) {
	b.t.ID = id
	b.t.N = 1
	b.t.Spans[0] = Span{Stage: stage, Start: startNS}
}

// Begin opens a child span under the span at index parent and returns
// its index, or -1 if the trace is full or not started — callers pass
// the index back to End/SetValue/SetAux, which tolerate -1, so an
// overflowing trace degrades to missing spans rather than corruption.
//
//kml:hotpath
func (b *Builder) Begin(stage Stage, parent int, startNS int64) int {
	if b.t.N == 0 || int(b.t.N) >= MaxTraceSpans {
		return -1
	}
	if parent < 0 || parent >= int(b.t.N) {
		return -1
	}
	idx := int(b.t.N)
	b.t.Spans[idx] = Span{Stage: stage, Parent: uint8(parent + 1), Start: startNS}
	b.t.N++
	return idx
}

// End stamps the span's end time. A negative or stale index is ignored.
//
//kml:hotpath
func (b *Builder) End(idx int, endNS int64) {
	if idx < 0 || idx >= int(b.t.N) {
		return
	}
	b.t.Spans[idx].End = endNS
}

// SetValue sets the span's primary attribute (see Span for semantics).
//
//kml:hotpath
func (b *Builder) SetValue(idx int, v int64) {
	if idx < 0 || idx >= int(b.t.N) {
		return
	}
	b.t.Spans[idx].Value = v
}

// SetAux sets the span's secondary attribute.
//
//kml:hotpath
func (b *Builder) SetAux(idx int, v int64) {
	if idx < 0 || idx >= int(b.t.N) {
		return
	}
	b.t.Spans[idx].Aux = v
}

// PackInferAux packs (model version, batch rows) into one Aux value for
// a serving StageInfer span: rows in the high 32 bits over the version's
// low 32 bits. batchRows is the row count of the forward pass that
// classified the request — its own rows inline, every gathered row when
// coalesced — so a trace shows how much company the request had.
// Versions are registry sequence numbers (small); the low-32 truncation
// is a rendering concession, not a correctness boundary.
//
//kml:hotpath
func PackInferAux(version uint64, batchRows int) int64 {
	return int64(batchRows)<<32 | int64(uint32(version))
}

// UnpackInferAux splits a PackInferAux value back into (version low
// bits, batch rows).
func UnpackInferAux(aux int64) (version uint64, batchRows int) {
	return uint64(uint32(aux)), int(aux >> 32)
}

// Finish closes the root span (if the caller has not already) and
// returns the completed trace. The pointer aliases the builder's
// storage — copy-free on the decision path — and stays valid until the
// next Start, which begins a fresh trace over the same slot.
//
//kml:hotpath
func (b *Builder) Finish(endNS int64) *Trace {
	if b.t.N > 0 && b.t.Spans[0].End == 0 {
		b.t.Spans[0].End = endNS
	}
	return &b.t
}
