// MsgLearnStatus payload: the wire form of the online-learning
// controller's state. Like MsgMetrics it is pull-based — the controller
// (internal/olearn) registers a snapshot source on the server and the
// payload is produced on demand — but unlike the self-describing metrics
// blob its layout is fixed: the state machine's position, the lifecycle
// counters, the canary comparison, and a bounded history of retrain
// events (the controller's flight recorder).
//
// Layout (all integers little-endian; int64 fields are two's-complement
// bit patterns):
//
//	u8  state                 (LearnIdle..LearnRolledBack)
//	u64 retrains | u64 deploys | u64 rollbacks | u64 commits
//	u64 trigger_fires | u64 examples | u64 last_version
//	i64 baseline_pm | i64 canary_pm      (-1 = unknown)
//	u16 nevents               (≤ MaxRetrainEvents)
//	repeated nevents times (64 bytes each):
//	  u64 time_ns | u64 version | u64 duration_ns
//	  u32 examples | u8 outcome (RetrainPending..RetrainRolledBack) | 3 zero bytes
//	  i64 baseline_pm | i64 canary_pm | i64 max_shift_mz | i64 churn_pm
//
// Every field is fixed-width and every enum, count and padding byte is
// checked on decode (DESIGN.md "Wire encodings").
package mserve

import "repro/internal/wire"

// Controller states on the wire, mirroring olearn's state machine. The
// server does not interpret them beyond range-checking; they live here so
// the wire contract is self-contained.
const (
	LearnIdle       = 0
	LearnCollecting = 1
	LearnRetraining = 2
	LearnCanary     = 3
	LearnCommitted  = 4
	LearnRolledBack = 5
)

// Retrain event outcomes.
const (
	RetrainPending    = 0 // deployed, canary window still open
	RetrainCommitted  = 1
	RetrainRolledBack = 2
	RetrainFailed     = 3 // training or deploy failed; nothing swapped
)

// MaxRetrainEvents bounds the event history on the wire. 128 events is
// ~8 KB — far below the frame cap, far above any sane flight-recorder
// depth.
const MaxRetrainEvents = 128

// RetrainEvent is one completed (or in-flight) retrain cycle: when it
// ran, what it deployed, what the canary saw, and what tripped it.
type RetrainEvent struct {
	TimeNanos     uint64 // wall-clock time the cycle finished training
	Version       uint64 // registry version deployed (0 if none)
	DurationNanos uint64 // background training duration
	Examples      uint32 // training examples used
	Outcome       uint8  // RetrainPending..RetrainFailed
	BaselinePM    int64  // pre-deploy hit-rate baseline, per-mille (-1 unknown)
	CanaryPM      int64  // post-deploy canary mean, per-mille (-1 unknown)
	MaxShiftMZ    int64  // drift shift (milli-Z) at trigger time
	ChurnPM       int64  // prediction churn (per-mille) at trigger time
}

// LearnStatus is the controller snapshot MsgLearnStatus carries.
type LearnStatus struct {
	State        uint8
	Retrains     uint64 // retrain cycles started
	Deploys      uint64 // versions the controller deployed
	Rollbacks    uint64 // canary rollbacks
	Commits      uint64 // canary commits
	TriggerFires uint64 // drift-trigger firings
	Examples     uint64 // training examples currently buffered
	LastVersion  uint64 // most recent version the controller deployed
	BaselinePM   int64  // current pre-deploy baseline (-1 unknown)
	CanaryPM     int64  // current canary mean (-1 unknown)
	Events       []RetrainEvent
}

// retrainEventSize is the fixed wire size of one event.
const retrainEventSize = 64

// AppendLearnStatus appends the canonical wire form of st. Events beyond
// MaxRetrainEvents are dropped oldest-first (the newest history is the
// operable part).
func AppendLearnStatus(dst []byte, st LearnStatus) []byte {
	st.Events = wire.Newest(st.Events, MaxRetrainEvents)
	return wire.Append(dst, st, learnStatusLayout)
}

// ParseLearnStatus decodes a learn-status payload, rejecting out-of-range
// states, outcomes, counts, nonzero padding, and length mismatches with
// ErrBadMessage.
func ParseLearnStatus(p []byte) (LearnStatus, error) {
	return wire.Parse(p, learnStatusLayout, ErrBadMessage)
}

func learnStatusLayout(c *wire.Codec, st *LearnStatus) {
	c.U8(&st.State)
	c.Check(st.State <= LearnRolledBack)
	for _, v := range [...]*uint64{
		&st.Retrains, &st.Deploys, &st.Rollbacks, &st.Commits,
		&st.TriggerFires, &st.Examples, &st.LastVersion,
	} {
		c.U64(v)
	}
	c.I64(&st.BaselinePM)
	c.I64(&st.CanaryPM)
	wire.List16(c, &st.Events, MaxRetrainEvents, retrainEventSize, retrainEventLayout)
}

func retrainEventLayout(c *wire.Codec, e *RetrainEvent) {
	var pad [3]uint8
	c.U64(&e.TimeNanos)
	c.U64(&e.Version)
	c.U64(&e.DurationNanos)
	c.U32(&e.Examples)
	c.U8(&e.Outcome)
	c.Check(e.Outcome <= RetrainFailed)
	for i := range pad {
		c.U8(&pad[i])
		c.Check(pad[i] == 0)
	}
	for _, v := range [...]*int64{&e.BaselinePM, &e.CanaryPM, &e.MaxShiftMZ, &e.ChurnPM} {
		c.I64(v)
	}
}

// LearnStateName renders a wire state for humans.
func LearnStateName(s uint8) string {
	switch s {
	case LearnIdle:
		return "idle"
	case LearnCollecting:
		return "collecting"
	case LearnRetraining:
		return "retraining"
	case LearnCanary:
		return "canary"
	case LearnCommitted:
		return "committed"
	case LearnRolledBack:
		return "rolled-back"
	}
	return "?"
}

// RetrainOutcomeName renders an event outcome for humans.
func RetrainOutcomeName(o uint8) string {
	switch o {
	case RetrainPending:
		return "canary"
	case RetrainCommitted:
		return "committed"
	case RetrainRolledBack:
		return "rolled-back"
	case RetrainFailed:
		return "failed"
	}
	return "?"
}
