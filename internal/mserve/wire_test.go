package mserve

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dtrace"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tsrec"
)

// wireCodec is one payload codec, its value boxed as any. parse and
// append are the codec under test, refParse and refAppend the
// hand-written one it replaced (wire_ref_test.go). check states the
// message's extra invariants on an accepted value, gen draws a random
// value, want is the value gen's value decodes as after the encoder's
// documented clamps, and seeds are payloads for the fuzz corpus.
type wireCodec struct {
	name              string
	parse, refParse   func([]byte) (any, error)
	append, refAppend func(any) []byte
	check             func(any) error
	gen               func(*rand.Rand) any
	want              func(any) any
	seeds             [][]byte
}

// codecOf is wireCodec before boxing, typed for the table below.
type codecOf[T any] struct {
	parse, refParse func([]byte) (T, error)
	app, refApp     func(T) []byte
	check           func(T) error // nil: no extra invariant
	gen             func(*rand.Rand) T
	want            func(T) T // nil: identity
	seeds           [][]byte
}

func (c codecOf[T]) box(name string) wireCodec {
	boxParse := func(parse func([]byte) (T, error)) func([]byte) (any, error) {
		return func(b []byte) (any, error) {
			v, err := parse(b)
			return v, err
		}
	}
	boxApp := func(app func(T) []byte) func(any) []byte {
		return func(v any) []byte { return app(v.(T)) }
	}
	w := wireCodec{
		name: name, seeds: c.seeds,
		parse: boxParse(c.parse), refParse: boxParse(c.refParse),
		append: boxApp(c.app), refAppend: boxApp(c.refApp),
		check: func(any) error { return nil },
		gen:   func(r *rand.Rand) any { return c.gen(r) },
		want:  func(v any) any { return v },
	}
	if c.check != nil {
		w.check = func(v any) error { return c.check(v.(T)) }
	}
	if c.want != nil {
		w.want = func(v any) any { return c.want(v.(T)) }
	}
	return w
}

// Composite values for the messages whose codecs take several arguments.
// Decoders fill fixed 64-element scratch, as the server's connections do.
type (
	inferReq struct {
		TraceID uint64
		Feats   []float64
	}
	inferResp struct {
		Class   uint16
		Version uint64
	}
	batchReq struct {
		TraceID     uint64
		Rows, NFeat int
		Feats       []float64
	}
	batchResp struct {
		Version uint64
		Classes []uint16
	}
	healthResp struct {
		OK      bool
		Version uint64
		InDim   int
	}
)

const wireScratch = 64

func parseInferReqWith(parse func([]byte, []float64) (int, uint64, error)) func([]byte) (inferReq, error) {
	return func(b []byte) (inferReq, error) {
		dst := make([]float64, wireScratch)
		n, tid, err := parse(b, dst)
		if err != nil {
			return inferReq{}, err
		}
		return inferReq{tid, dst[:n]}, nil
	}
}

func parseBatchReqWith(parse func([]byte, []float64) (int, int, uint64, error)) func([]byte) (batchReq, error) {
	return func(b []byte) (batchReq, error) {
		dst := make([]float64, wireScratch)
		rows, nfeat, tid, err := parse(b, dst)
		if err != nil {
			return batchReq{}, err
		}
		return batchReq{tid, rows, nfeat, dst[:rows*nfeat]}, nil
	}
}

func parseBatchRespWith(parse func([]byte, []uint16) (int, uint64, error)) func([]byte) (batchResp, error) {
	return func(b []byte) (batchResp, error) {
		classes := make([]uint16, wireScratch)
		rows, v, err := parse(b, classes)
		if err != nil {
			return batchResp{}, err
		}
		return batchResp{v, classes[:rows]}, nil
	}
}

func randName(r *rand.Rand, max int) string {
	b := make([]byte, r.Intn(max+1))
	r.Read(b)
	return string(b)
}

// clampName is Name's documented encoder clamp.
func clampName(s string, max int) string {
	if s == "" {
		return "?"
	}
	return s[:min(len(s), max)]
}

// overCap returns n, or with probability 1/16 a count past cap, so the
// generated values exercise the encoders' list clamps.
func overCap(r *rand.Rand, n, cap int) int {
	if r.Intn(16) == 0 {
		return cap + 1 + r.Intn(8)
	}
	return n
}

func randHist(r *rand.Rand) telemetry.HistogramSnapshot {
	var h telemetry.HistogramSnapshot
	h.Sum = r.Uint64()
	for i := r.Intn(5); i > 0; i-- {
		c := uint64(r.Intn(1000) + 1)
		h.Buckets[r.Intn(telemetry.NumBuckets)] += c
		h.Count += c
	}
	return h
}

// wireCodecs is every payload that runs on internal/wire, in a fixed
// order: FuzzWireCanonical's first input byte indexes it.
func wireCodecs() []wireCodec {
	hist := func(ns ...int64) telemetry.HistogramSnapshot {
		var h telemetry.Histogram
		for _, v := range ns {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	emptyMetrics := AppendMetrics(nil, MetricsSnapshot{})
	emptyLearn := AppendLearnStatus(nil, LearnStatus{})
	lyingLearn := append([]byte(nil), emptyLearn...)
	lyingLearn[len(lyingLearn)-2] = 0xFF // event count with no event bytes
	emptyBlackbox := AppendBlackboxStatus(nil, BlackboxStatus{})
	lyingBlackbox := AppendBlackboxStatus(nil, BlackboxStatus{Path: "x"})
	lyingBlackbox[blackboxHeaderSize-2] = 0xFF // path length with no path bytes
	nested := func() dtrace.Trace {
		var b dtrace.Builder
		b.Start(3, 1)
		p := b.Begin(dtrace.StageParse, 0, 2)
		b.End(p, 3)
		c := b.Begin(dtrace.StageInfer, p, 3)
		b.End(c, 4)
		return *b.Finish(5)
	}()
	badHealth := AppendHealthResp(nil, true, 5, 4)
	badHealth[0] = 2

	return []wireCodec{
		codecOf[inferReq]{
			parse: parseInferReqWith(ParseInferReq), refParse: parseInferReqWith(refParseInferReq),
			app:    func(v inferReq) []byte { return AppendInferReq(nil, v.TraceID, v.Feats) },
			refApp: func(v inferReq) []byte { return refAppendInferReq(nil, v.TraceID, v.Feats) },
			gen: func(r *rand.Rand) inferReq {
				feats := make([]float64, 1+r.Intn(wireScratch))
				for i := range feats {
					feats[i] = r.NormFloat64()
				}
				return inferReq{r.Uint64(), feats}
			},
			seeds: [][]byte{{}, AppendInferReq(nil, ClientTraceIDBit|42, []float64{0.25, -1, 3.5, 42})},
		}.box("InferReq"),
		codecOf[inferResp]{
			parse: func(b []byte) (inferResp, error) {
				c, v, err := ParseInferResp(b)
				return inferResp{c, v}, err
			},
			refParse: func(b []byte) (inferResp, error) {
				c, v, err := refParseInferResp(b)
				return inferResp{c, v}, err
			},
			app:    func(v inferResp) []byte { return AppendInferResp(nil, v.Class, v.Version) },
			refApp: func(v inferResp) []byte { return refAppendInferResp(nil, v.Class, v.Version) },
			gen:    func(r *rand.Rand) inferResp { return inferResp{uint16(r.Uint32()), r.Uint64()} },
			seeds:  [][]byte{{}, AppendInferResp(nil, 3, 17)},
		}.box("InferResp"),
		codecOf[batchReq]{
			parse: parseBatchReqWith(ParseBatchInferReq), refParse: parseBatchReqWith(refParseBatchInferReq),
			app:    func(v batchReq) []byte { return AppendBatchInferReq(nil, v.TraceID, v.Feats, v.Rows, v.NFeat) },
			refApp: func(v batchReq) []byte { return refAppendBatchInferReq(nil, v.TraceID, v.Feats, v.Rows, v.NFeat) },
			gen: func(r *rand.Rand) batchReq {
				rows, nfeat := 1+r.Intn(8), 1+r.Intn(8)
				feats := make([]float64, rows*nfeat)
				for i := range feats {
					feats[i] = r.NormFloat64()
				}
				return batchReq{r.Uint64(), rows, nfeat, feats}
			},
			seeds: [][]byte{{}, AppendBatchInferReq(nil, 7, []float64{1, 2, 3, 4, 5, 6}, 2, 3)},
		}.box("BatchInferReq"),
		codecOf[batchResp]{
			parse: parseBatchRespWith(ParseBatchInferResp), refParse: parseBatchRespWith(refParseBatchInferResp),
			app:    func(v batchResp) []byte { return AppendBatchInferResp(nil, v.Classes, v.Version) },
			refApp: func(v batchResp) []byte { return refAppendBatchInferResp(nil, v.Classes, v.Version) },
			gen: func(r *rand.Rand) batchResp {
				classes := make([]uint16, r.Intn(wireScratch+1))
				for i := range classes {
					classes[i] = uint16(r.Intn(8))
				}
				return batchResp{r.Uint64(), classes}
			},
			seeds: [][]byte{{}, AppendBatchInferResp(nil, []uint16{0, 3, 2}, 9)},
		}.box("BatchInferResp"),
		codecOf[Stats]{
			parse: ParseStats, refParse: refParseStats,
			app:    func(v Stats) []byte { return AppendStats(nil, v) },
			refApp: func(v Stats) []byte { return refAppendStats(nil, v) },
			gen: func(r *rand.Rand) Stats {
				return Stats{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(),
					r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(),
					r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
			},
			seeds: [][]byte{{}, AppendStats(nil, Stats{ActiveVersion: 1, CoalesceRows: 21})},
		}.box("Stats"),
		codecOf[healthResp]{
			parse: func(b []byte) (healthResp, error) {
				ok, v, d, err := ParseHealthResp(b)
				return healthResp{ok, v, d}, err
			},
			refParse: func(b []byte) (healthResp, error) {
				ok, v, d, err := refParseHealthResp(b)
				return healthResp{ok, v, d}, err
			},
			app:    func(v healthResp) []byte { return AppendHealthResp(nil, v.OK, v.Version, v.InDim) },
			refApp: func(v healthResp) []byte { return refAppendHealthResp(nil, v.OK, v.Version, v.InDim) },
			gen: func(r *rand.Rand) healthResp {
				return healthResp{r.Intn(2) == 1, r.Uint64(), r.Intn(1 << 16)}
			},
			seeds: [][]byte{{}, AppendHealthResp(nil, true, 5, 4), badHealth},
		}.box("HealthResp"),
		codecOf[uint8]{
			parse: ParseBlackboxReq, refParse: refParseBlackboxReq,
			app:    func(v uint8) []byte { return AppendBlackboxReq(nil, v) },
			refApp: func(v uint8) []byte { return refAppendBlackboxReq(nil, v) },
			gen:    func(r *rand.Rand) uint8 { return uint8(r.Intn(2)) },
			seeds:  [][]byte{{}, AppendBlackboxReq(nil, BlackboxSync), {2}},
		}.box("BlackboxReq"),
		codecOf[BlackboxStatus]{
			parse: ParseBlackboxStatus, refParse: refParseBlackboxStatus,
			app:    func(v BlackboxStatus) []byte { return AppendBlackboxStatus(nil, v) },
			refApp: func(v BlackboxStatus) []byte { return refAppendBlackboxStatus(nil, v) },
			check: func(st BlackboxStatus) error {
				if len(st.Path) > MaxBlackboxPath {
					return fmt.Errorf("path %d bytes exceeds cap", len(st.Path))
				}
				return nil
			},
			gen: func(r *rand.Rand) BlackboxStatus {
				return BlackboxStatus{r.Intn(2) == 1, r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(),
					int64(r.Uint64()), randName(r, MaxBlackboxPath+64)}
			},
			want: func(st BlackboxStatus) BlackboxStatus {
				st.Path = st.Path[:min(len(st.Path), MaxBlackboxPath)]
				return st
			},
			seeds: [][]byte{
				{},
				emptyBlackbox,
				AppendBlackboxStatus(nil, BlackboxStatus{
					Enabled: true, Records: 1000, Dropped: 1, Flushes: 40,
					RingBytes: 4 << 20, TornAtOpen: 1,
					LastFlushNanos: 1700000000000000000, Path: "/var/run/kml/bb.bin",
				}),
				{2},                      // out-of-range enabled
				append(emptyBlackbox, 9), // trailing byte
				lyingBlackbox,
			},
		}.box("BlackboxStatus"),
		codecOf[MetricsSnapshot]{
			parse: ParseMetrics, refParse: refParseMetrics,
			app:    func(v MetricsSnapshot) []byte { return AppendMetrics(nil, v) },
			refApp: func(v MetricsSnapshot) []byte { return refAppendMetrics(nil, v) },
			check: func(snap MetricsSnapshot) error {
				if len(snap.Metrics) > MaxMetrics || len(snap.Decisions) > MaxDecisions {
					return fmt.Errorf("%d metrics, %d decisions exceed the caps", len(snap.Metrics), len(snap.Decisions))
				}
				for _, m := range snap.Metrics {
					var sum uint64
					for _, c := range m.Hist.Buckets {
						sum += c
					}
					if sum != m.Hist.Count {
						return fmt.Errorf("histogram %q count %d != bucket sum %d", m.Name, m.Hist.Count, sum)
					}
				}
				return nil
			},
			gen: func(r *rand.Rand) MetricsSnapshot {
				var snap MetricsSnapshot
				for i := overCap(r, r.Intn(6), MaxMetrics); i > 0; i-- {
					m := Metric{Name: randName(r, MaxMetricName+8), Kind: uint8(r.Intn(3))}
					if m.Kind == MetricHistogram {
						m.Hist = randHist(r)
					} else {
						m.Value = int64(r.Uint64())
					}
					snap.Metrics = append(snap.Metrics, m)
				}
				for i := overCap(r, r.Intn(6), MaxDecisions); i > 0; i-- {
					snap.Decisions = append(snap.Decisions, MetricsDecision{
						r.Uint64(), r.Uint64(), int32(r.Uint32()), r.Uint32(), r.Uint32()})
				}
				return snap
			},
			want: func(snap MetricsSnapshot) MetricsSnapshot {
				out := MetricsSnapshot{Decisions: snap.Decisions[:min(len(snap.Decisions), MaxDecisions)]}
				for _, m := range snap.Metrics[:min(len(snap.Metrics), MaxMetrics)] {
					m.Name = clampName(m.Name, MaxMetricName)
					out.Metrics = append(out.Metrics, m)
				}
				return out
			},
			seeds: [][]byte{
				{},
				emptyMetrics,
				AppendMetrics(nil, MetricsSnapshot{
					Metrics: []Metric{
						{Name: "c", Kind: MetricCounter, Value: 7},
						{Name: "g", Kind: MetricGauge, Value: -7},
					},
					Decisions: []MetricsDecision{{TimeNanos: 1, Version: 2, Class: -1, Rows: 3, Sectors: 4}},
				}),
				AppendMetrics(nil, MetricsSnapshot{Metrics: []Metric{
					{Name: "h", Kind: MetricHistogram, Hist: hist(0, 1, 500, 1<<40)},
					{Name: "empty", Kind: MetricHistogram},
				}}),
				{0xFF, 0xFF},            // lying metric count
				append(emptyMetrics, 1), // trailing byte
				// A histogram "h" with one zero-count bucket (index 3).
				{1, 0, MetricHistogram, 1, 'h', 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			},
		}.box("Metrics"),
		codecOf[LearnStatus]{
			parse: ParseLearnStatus, refParse: refParseLearnStatus,
			app:    func(v LearnStatus) []byte { return AppendLearnStatus(nil, v) },
			refApp: func(v LearnStatus) []byte { return refAppendLearnStatus(nil, v) },
			check: func(st LearnStatus) error {
				if len(st.Events) > MaxRetrainEvents || st.State > LearnRolledBack {
					return fmt.Errorf("%d events / state %d out of range", len(st.Events), st.State)
				}
				return nil
			},
			gen: func(r *rand.Rand) LearnStatus {
				st := LearnStatus{uint8(r.Intn(LearnRolledBack + 1)), r.Uint64(), r.Uint64(), r.Uint64(),
					r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(), int64(r.Uint64()), int64(r.Uint64()), nil}
				for i := overCap(r, r.Intn(5), MaxRetrainEvents); i > 0; i-- {
					st.Events = append(st.Events, RetrainEvent{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint32(),
						uint8(r.Intn(RetrainFailed + 1)), int64(r.Uint64()), int64(r.Uint64()),
						int64(r.Uint64()), int64(r.Uint64())})
				}
				return st
			},
			want: func(st LearnStatus) LearnStatus {
				st.Events = st.Events[max(0, len(st.Events)-MaxRetrainEvents):]
				return st
			},
			seeds: [][]byte{
				{},
				AppendLearnStatus(nil, LearnStatus{BaselinePM: -1, CanaryPM: -1}),
				AppendLearnStatus(nil, LearnStatus{
					State:    LearnCanary,
					Retrains: 3, Deploys: 4, Rollbacks: 1, Commits: 2,
					TriggerFires: 5, Examples: 256, LastVersion: 9,
					BaselinePM: 700, CanaryPM: 650,
					Events: []RetrainEvent{
						{TimeNanos: 1, Version: 8, DurationNanos: 2_000_000, Examples: 128,
							Outcome: RetrainCommitted, BaselinePM: 600, CanaryPM: 700,
							MaxShiftMZ: 2500, ChurnPM: 120},
						{TimeNanos: 2, Version: 9, Outcome: RetrainPending,
							BaselinePM: -1, CanaryPM: -1},
					},
				}),
				{6},                   // out-of-range state
				append(emptyLearn, 1), // trailing byte
				lyingLearn,
			},
		}.box("LearnStatus"),
		codecOf[[]dtrace.Trace]{
			parse: dtrace.ParseTraces, refParse: refParseTraces,
			app:    func(v []dtrace.Trace) []byte { return dtrace.AppendTraces(nil, v) },
			refApp: func(v []dtrace.Trace) []byte { return refAppendTraces(nil, v) },
			check: func(ts []dtrace.Trace) error {
				if len(ts) > dtrace.MaxWireTraces {
					return fmt.Errorf("%d traces exceed the cap", len(ts))
				}
				for i := range ts {
					if !refWireOK(&ts[i]) {
						return fmt.Errorf("trace %d is not wire-representable: %+v", i, ts[i])
					}
				}
				return nil
			},
			gen: func(r *rand.Rand) []dtrace.Trace {
				ts := make([]dtrace.Trace, overCap(r, r.Intn(5), dtrace.MaxWireTraces))
				for i := range ts {
					t := &ts[i]
					t.ID = dtrace.TraceID(r.Uint64())
					t.N = uint8(1 + r.Intn(dtrace.MaxTraceSpans))
					for j := range t.Spans[:t.N] {
						t.Spans[j] = dtrace.Span{Start: int64(r.Uint64()), End: int64(r.Uint64()),
							Value: int64(r.Uint64()), Aux: int64(r.Uint64()),
							Stage: dtrace.Stage(r.Intn(int(dtrace.NumStages))), Parent: uint8(r.Intn(j + 1))}
					}
					if r.Intn(8) == 0 { // not representable: the encoder skips it
						t.N = 0
					}
				}
				return ts
			},
			want: func(ts []dtrace.Trace) []dtrace.Trace {
				var out []dtrace.Trace
				for i := range ts {
					if refWireOK(&ts[i]) {
						out = append(out, ts[i])
					}
				}
				return out[max(0, len(out)-dtrace.MaxWireTraces):]
			},
			seeds: [][]byte{
				{0, 0},
				dtrace.AppendTraces(nil, []dtrace.Trace{dtraceTestTrace(1)}),
				dtrace.AppendTraces(nil, []dtrace.Trace{dtraceTestTrace(1), dtraceTestTrace(2), dtraceTestTrace(1 << 40)}),
				dtrace.AppendTraces(nil, []dtrace.Trace{nested}),
				{1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 0, 0},
			},
		}.box("Traces"),
		codecOf[tsrec.Series]{
			parse: tsrec.ParseSeries, refParse: refParseSeries,
			app:    func(v tsrec.Series) []byte { return tsrec.AppendSeries(nil, v) },
			refApp: func(v tsrec.Series) []byte { return refAppendSeries(nil, v) },
			check: func(s tsrec.Series) error {
				if len(s.Counters) > tsrec.MaxCounters || len(s.Hists) > tsrec.MaxHists || len(s.Points) > tsrec.MaxWirePoints {
					return fmt.Errorf("series exceeds wire bounds: %d/%d/%d", len(s.Counters), len(s.Hists), len(s.Points))
				}
				return nil
			},
			gen: func(r *rand.Rand) tsrec.Series {
				s := tsrec.Series{IntervalNanos: int64(r.Uint64())}
				for i := overCap(r, r.Intn(4), tsrec.MaxCounters); i > 0; i-- {
					s.Counters = append(s.Counters, randName(r, tsrec.MaxSeriesName+8))
				}
				for i := overCap(r, r.Intn(3), tsrec.MaxHists); i > 0; i-- {
					s.Hists = append(s.Hists, randName(r, tsrec.MaxSeriesName+8))
				}
				s.Points = make([]tsrec.Point, overCap(r, r.Intn(5), tsrec.MaxWirePoints))
				for i := range s.Points {
					p := &s.Points[i]
					p.TimeNanos = int64(r.Uint64())
					for c := range min(len(s.Counters), tsrec.MaxCounters) {
						p.Deltas[c] = r.Uint64()
					}
					for h := range min(len(s.Hists), tsrec.MaxHists) {
						p.Counts[h], p.P50[h], p.P95[h], p.P99[h] = r.Uint64(), int64(r.Uint64()), int64(r.Uint64()), int64(r.Uint64())
					}
				}
				return s
			},
			want: func(s tsrec.Series) tsrec.Series {
				out := tsrec.Series{IntervalNanos: s.IntervalNanos, Points: s.Points[max(0, len(s.Points)-tsrec.MaxWirePoints):]}
				for _, n := range s.Counters[:min(len(s.Counters), tsrec.MaxCounters)] {
					out.Counters = append(out.Counters, clampName(n, tsrec.MaxSeriesName))
				}
				for _, n := range s.Hists[:min(len(s.Hists), tsrec.MaxHists)] {
					out.Hists = append(out.Hists, clampName(n, tsrec.MaxSeriesName))
				}
				return out
			},
			seeds: [][]byte{
				tsrec.AppendSeries(nil, tsrecSampleSeries()),
				tsrec.AppendSeries(nil, tsrec.Series{}),
				{},
				bytes.Repeat([]byte{0xFF}, 64),
			},
		}.box("Series"),
	}
}

// dtraceTestTrace is dtrace's buildTestTrace: a full six-span decision.
func dtraceTestTrace(id dtrace.TraceID) dtrace.Trace {
	var b dtrace.Builder
	b.Start(id, 100)
	b.SetValue(0, 2)
	b.SetAux(0, 17_000_000_000)
	f := b.Begin(dtrace.StageFeature, 0, 110)
	b.SetValue(f, 512)
	b.End(f, 120)
	n := b.Begin(dtrace.StageNormalize, 0, 120)
	b.SetValue(n, 4)
	b.End(n, 130)
	i := b.Begin(dtrace.StageInfer, 0, 130)
	b.SetValue(i, 2)
	b.SetAux(i, 3)
	b.End(i, 160)
	a := b.Begin(dtrace.StageApply, 0, 160)
	b.SetValue(a, 1024)
	b.SetAux(a, 256)
	b.End(a, 170)
	o := b.Begin(dtrace.StageOutcome, 0, 170)
	b.SetValue(o, 40)
	b.SetAux(o, 910)
	b.End(o, 500)
	return *b.Finish(500)
}

// tsrecSampleSeries is tsrec's sampleSeries: two counters, one histogram,
// three points.
func tsrecSampleSeries() tsrec.Series {
	s := tsrec.Series{
		IntervalNanos: 1_000_000_000,
		Counters:      []string{"mserve_rows", "mserve_errors"},
		Hists:         []string{"mserve_infer_ns"},
		Points:        make([]tsrec.Point, 3),
	}
	for i := range s.Points {
		p := &s.Points[i]
		p.TimeNanos = int64(1000 * (i + 1))
		p.Deltas[0] = uint64(10 * (i + 1))
		p.Deltas[1] = uint64(i)
		p.Counts[0] = uint64(100 + i)
		p.P50[0] = 1500
		p.P95[0] = 3000
		p.P99[0] = 6000
	}
	return s
}

// sameValue compares decoded values field by field, treating a nil and
// an empty slice as the same list (decoders differ only in which they
// return for a zero count).
func sameValue(a, b any) bool {
	norm := func(v any) string { return strings.ReplaceAll(fmt.Sprintf("%#v", v), "(nil)", "{}") }
	return norm(a) == norm(b)
}

// mutate returns a copy of b with one random edit: a flipped byte, a
// byte set to an edge value, a run of up to 8 bytes zeroed (a zero count
// or length), a truncation, or an inserted byte.
func mutate(r *rand.Rand, b []byte) []byte {
	out := append([]byte(nil), b...)
	switch k := r.Intn(5); {
	case k == 0 && len(out) > 0:
		out[r.Intn(len(out))] ^= byte(1 + r.Intn(255))
	case k == 1 && len(out) > 0:
		out[r.Intn(len(out))] = []byte{0, 1, 2, 0xFF}[r.Intn(4)]
	case k == 2 && len(out) > 0:
		i := r.Intn(len(out))
		clear(out[i:min(len(out), i+1+r.Intn(8))])
	case k == 3:
		out = out[:r.Intn(len(out)+1)]
	default:
		i := r.Intn(len(out) + 1)
		out = append(out[:i], append([]byte{byte(r.Intn(256))}, out[i:]...)...)
	}
	return out
}

// TestWireMatchesReference runs every codec against the hand-written one
// it replaced (the oracle) over the fuzz seeds, random valid values and
// random edits of their encodings: Append writes the reference's
// bytes, and Parse agrees with the reference on accept/reject and on the
// decoded value. The one expected difference is MsgHealth's ok byte,
// which the reference decoded loosely (any byte but 1 read as false).
func TestWireMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	healthFixes := 0
	for _, m := range wireCodecs() {
		var inputs [][]byte
		for _, seed := range m.seeds {
			inputs = append(inputs, seed, mutate(r, seed), mutate(r, seed))
		}
		for i := 0; i < 200; i++ {
			v := m.gen(r)
			enc, ref := m.append(v), m.refAppend(v)
			if !bytes.Equal(enc, ref) {
				t.Fatalf("%s: Append(%#v)\n got %x\nwant %x (reference)", m.name, v, enc, ref)
			}
			inputs = append(inputs, enc)
			for k := 0; k < 4; k++ {
				inputs = append(inputs, mutate(r, enc))
			}
		}
		for _, b := range inputs {
			v, err := m.parse(b)
			rv, rerr := m.refParse(b)
			if m.name == "HealthResp" && err != nil && rerr == nil && len(b) > 0 && b[0] > 1 {
				healthFixes++
				continue
			}
			if (err == nil) != (rerr == nil) {
				t.Fatalf("%s: Parse(%x) err = %v, reference err = %v", m.name, b, err, rerr)
			}
			if err != nil {
				continue
			}
			if !sameValue(v, rv) {
				t.Fatalf("%s: Parse(%x)\n got %#v\nwant %#v (reference)", m.name, b, v, rv)
			}
			if enc, ref := m.append(v), m.refAppend(v); !bytes.Equal(enc, ref) || !bytes.Equal(enc, b) {
				t.Fatalf("%s: re-encoding %x: got %x, reference %x", m.name, b, enc, ref)
			}
		}
	}
	if healthFixes == 0 {
		t.Fatal("no input exercised the MsgHealth ok-byte fix")
	}
}

// TestWireRoundTripsGeneratedValues is the reverse of the canonical
// property: for random in-range values x, Parse(Append(x)) succeeds and
// equals x after the encoder's documented clamps (name truncation, "" →
// "?", the first-N and keep-newest list caps, unrepresentable traces
// skipped).
func TestWireRoundTripsGeneratedValues(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for _, m := range wireCodecs() {
		for i := 0; i < 200; i++ {
			x := m.gen(r)
			got, err := m.parse(m.append(x))
			if err != nil {
				t.Fatalf("%s: Parse(Append(%#v)): %v", m.name, x, err)
			}
			if want := m.want(x); !sameValue(got, want) {
				t.Fatalf("%s: Parse(Append(x))\n got %#v\nwant %#v", m.name, got, want)
			}
		}
	}
}
