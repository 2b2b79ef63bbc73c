// MsgMetrics payload: the wire form of a telemetry snapshot. The
// payload is self-describing — each entry carries its name and kind — so
// new instrumentation reaches `kml-ctl status` without a protocol
// revision. The daemon's Stats counters are not a message of their own:
// they are a view of this snapshot (MetricsSnapshot.Stats), so every
// number has one home, the server's telemetry registry.
//
// Layout (all integers little-endian):
//
//	u16 nmetrics                      (≤ MaxMetrics)
//	repeated nmetrics times:
//	  u8  kind                        (MetricCounter|MetricGauge|MetricHistogram)
//	  u8  namelen                     (1..MaxMetricName)
//	  namelen bytes of name
//	  kind counter/gauge: u64 value   (gauge is int64 bit pattern)
//	  kind histogram:
//	    u64 sum
//	    u8  nbuckets                  (≤ telemetry.NumBuckets)
//	    repeated nbuckets times:
//	      u8  index                   (strictly increasing, < NumBuckets)
//	      u64 count                   (nonzero; total count is derived)
//	u16 ndecisions                    (≤ MaxDecisions)
//	repeated ndecisions times:
//	  u64 time_ns | u64 version | u32 class (int32 bits) | u32 rows | u32 sectors
//
// Histograms carry only their populated buckets, in index order, so the
// encoding stays canonical (DESIGN.md "Wire encodings").
package mserve

import (
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Metric kinds on the wire. Func gauges flatten to MetricGauge: the
// distinction is a registry implementation detail, not an operator fact.
const (
	MetricCounter   = 0
	MetricGauge     = 1
	MetricHistogram = 2
)

// Wire limits. A maximal payload (512 full histograms + 1024 decisions)
// is ~330 KB, under the 1 MiB frame cap.
const (
	MaxMetrics    = 512
	MaxMetricName = 128
	MaxDecisions  = 1024
)

// Metric is one named metric in a snapshot.
type Metric struct {
	Name  string
	Kind  uint8
	Value int64 // counter/gauge value; unused for histograms
	Hist  telemetry.HistogramSnapshot
}

// MetricsDecision is one flight-recorder entry: a served model decision.
// Sectors is always 0: nothing records a device decision here, and the
// field stays only because the MsgMetrics layout carries it.
type MetricsDecision struct {
	TimeNanos uint64
	Version   uint64
	Class     int32
	Rows      uint32
	Sectors   uint32
}

// MetricsSnapshot is the decoded MsgMetrics payload.
type MetricsSnapshot struct {
	Metrics   []Metric
	Decisions []MetricsDecision
}

// AppendMetrics appends the canonical wire form of snap. Entries beyond
// the wire limits are dropped (metrics past MaxMetrics, decisions past
// MaxDecisions, names truncated to MaxMetricName) — the registry and
// flight recorder are sized far below the caps, so truncation only
// guards against a hostile in-process caller.
func AppendMetrics(dst []byte, snap MetricsSnapshot) []byte {
	return wire.Append(dst, snap, metricsLayout)
}

// ParseMetrics decodes a metrics payload, rejecting any violation of the
// canonical form (limits exceeded, zero or out-of-order histogram
// buckets, short or trailing bytes) with ErrBadMessage.
func ParseMetrics(p []byte) (MetricsSnapshot, error) {
	return wire.Parse(p, metricsLayout, ErrBadMessage)
}

func metricsLayout(c *wire.Codec, snap *MetricsSnapshot) {
	// The smallest metric is a counter with a one-byte name: 11 bytes.
	wire.List16(c, &snap.Metrics, MaxMetrics, 11, metricLayout)
	wire.List16(c, &snap.Decisions, MaxDecisions, 28, decisionLayout)
}

func metricLayout(c *wire.Codec, m *Metric) {
	c.U8(&m.Kind)
	c.Name(&m.Name, MaxMetricName)
	c.Check(m.Kind <= MetricHistogram)
	if m.Kind != MetricHistogram {
		c.I64(&m.Value)
		return
	}
	h := &m.Hist
	c.U64(&h.Sum)
	n := 0
	for _, b := range h.Buckets {
		if b != 0 {
			n++
		}
	}
	c.Len8(&n, telemetry.NumBuckets, 9)
	for k, prev := 0, -1; k < n; k++ {
		// An encoder walks to the next populated bucket; a decoder reads
		// its index and checks the order.
		idx := uint8(prev + 1)
		for !c.Decoding() && h.Buckets[idx] == 0 {
			idx++
		}
		c.U8(&idx)
		if !c.Check(int(idx) > prev && int(idx) < telemetry.NumBuckets) {
			return
		}
		c.U64(&h.Buckets[idx])
		c.Check(h.Buckets[idx] != 0)
		if c.Decoding() {
			h.Count += h.Buckets[idx] // derived, not sent
		}
		prev = int(idx)
	}
}

func decisionLayout(c *wire.Codec, d *MetricsDecision) {
	class := uint32(d.Class)
	c.U64(&d.TimeNanos)
	c.U64(&d.Version)
	c.U32(&class)
	c.U32(&d.Rows)
	c.U32(&d.Sectors)
	if c.Decoding() {
		d.Class = int32(class)
	}
}

// Stats is the server's operational counters, the ones `kml-ctl status`
// prints first. It is a read-only view of a MetricsSnapshot. Collected
// and Dropped stay only because benchmark/serve.go reads them
// (mserve.collected, mserve.collect_dropped).
type Stats struct {
	ActiveVersion uint64 // registry version currently served
	Deploys       uint64 // successful Deploy calls since registry open
	Rollbacks     uint64 // successful Rollback calls since registry open
	Inferences    uint64 // Infer + BatchInfer requests served
	Rows          uint64 // total feature vectors classified
	Errors        uint64 // MsgError responses sent
	Conns         uint64 // connections currently open
	MaxConns      uint64 // connection limit
	ConnRejects   uint64 // connections refused at the limit
	ArenaRejects  uint64 // connections refused by memutil admission
	Collected     uint64 // decisions recorded, one per served request (mserve_decisions)
	Dropped       uint64 // maps to no metric and reads 0: recording a decision cannot fail
	ArenaLive     uint64 // bytes charged to the server arena
	ArenaPeak     uint64 // arena high-water mark

	// Cross-connection batch coalescing (0 window = disabled). Mean
	// achieved batch size is CoalesceRows / CoalesceBatches — the number
	// that says whether the gather window is amortizing the fused kernel.
	CoalesceWindowNS uint64 // configured gather window in nanoseconds
	CoalesceMaxRows  uint64 // configured per-batch row cap
	CoalesceBatches  uint64 // fused batches executed
	CoalesceRows     uint64 // rows served through coalesced batches
}

// statsFields names the registry metric behind each field of st: the
// view's one table.
func statsFields(st *Stats) map[string]*uint64 {
	return map[string]*uint64{
		"mserve_active_version":     &st.ActiveVersion,
		"mserve_deploys":            &st.Deploys,
		"mserve_rollbacks":          &st.Rollbacks,
		"mserve_inferences":         &st.Inferences,
		"mserve_rows":               &st.Rows,
		"mserve_errors":             &st.Errors,
		"mserve_conns":              &st.Conns,
		"mserve_max_conns":          &st.MaxConns,
		"mserve_conn_rejects":       &st.ConnRejects,
		"mserve_arena_rejects":      &st.ArenaRejects,
		"mserve_decisions":          &st.Collected,
		"mserve_arena_live_bytes":   &st.ArenaLive,
		"mserve_arena_peak_bytes":   &st.ArenaPeak,
		"mserve_coalesce_window_ns": &st.CoalesceWindowNS,
		"mserve_coalesce_max_rows":  &st.CoalesceMaxRows,
		"mserve_coalesce_batches":   &st.CoalesceBatches,
		"mserve_coalesce_rows":      &st.CoalesceRows,
	}
}

// Stats reads the server's counters out of the snapshot. A field whose
// metric the snapshot lacks reads 0.
func (snap MetricsSnapshot) Stats() Stats {
	var st Stats
	fields := statsFields(&st)
	for _, m := range snap.Metrics {
		if f, ok := fields[m.Name]; ok {
			*f = uint64(m.Value)
		}
	}
	return st
}

// CoalesceMeanBatch returns the mean achieved coalesced batch size, or 0
// before any batch executed.
func (st Stats) CoalesceMeanBatch() float64 {
	if st.CoalesceBatches == 0 {
		return 0
	}
	return float64(st.CoalesceRows) / float64(st.CoalesceBatches)
}
