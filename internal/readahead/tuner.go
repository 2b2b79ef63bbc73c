package readahead

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/features"
	"repro/internal/mserve"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Policy maps a predicted workload class to the readahead value (sectors)
// that maximized throughput for that class in the sweep study — the
// "mapping from the workload type to the readahead value that provided the
// best throughput" the paper builds empirically (§4).
type Policy [workload.NumClasses]int

// DefaultPolicy returns the per-class readahead values found by the sweep
// (cmd/kml-sweep regenerates them): sequential scans want a window large
// enough to stream — beyond which throughput is flat — while
// random-dominated workloads want readahead out of the way. The readseq
// optimum is the only value that differs between devices: NVMe saturates
// with a small window, the SATA SSD needs a larger one to amortize command
// overhead.
func DefaultPolicy(prof blockdev.Profile) Policy {
	seq := 224
	if prof.Name == blockdev.NVMe().Name {
		seq = 32
	}
	return Policy{
		0: seq, // readseq
		1: 8,   // readrandom
		2: 8,   // readreverse
		3: 8,   // readrandomwriterandom
	}
}

// Decision is one tuning step, recorded for the Figure-2 timeline.
type Decision struct {
	Time    time.Duration
	Class   int
	Sectors int
	Events  uint64 // tracepoints in the decided window
	Version uint64 // model version that made the call; 0 for a static model
}

// TunerConfig parameterizes the closed loop.
type TunerConfig struct {
	// Window is the decision interval; 0 means 1 second (the paper runs
	// inference "in a different thread context once a second").
	Window time.Duration
	// Policy maps classes to sectors; the zero Policy is replaced by
	// DefaultPolicy for the tuned device.
	Policy Policy
	// Outcome, when set, is sampled at decision boundaries to attribute
	// each decision's outcome — the cache hit rate over the FOLLOWING
	// window — which is handed to the Learner and, when tracing, stamped
	// on the decision's outcome span. Nil disables attribution.
	Outcome OutcomeSampler
}

// Tuner is the deployed KML readahead application: it collects tracepoint
// records through a lock-free ring, extracts one feature window per
// second, classifies the running workload, and drives the device readahead
// setting (the block-layer ioctl path of Figure 1).
type Tuner struct {
	loop
	dev       *blockdev.Device
	deploy    *mserve.Deployment[core.Classifier]
	norm      features.Normalizer
	policy    Policy
	ext       features.Extractor
	featBuf   []float64
	decisions []Decision

	inferNanos *telemetry.Histogram
	decCount   *telemetry.Counter // readahead_decisions: one per window tick
	classCount [workload.NumClasses]*telemetry.Counter

	// Outcome attribution (TunerConfig.Outcome), decision tracing
	// (EnableTracing), drift detection (InstrumentDrift), and the online
	// learner (SetLearner). The builder and scratch are owned by the
	// tuner so a traced tick allocates nothing.
	outcome    OutcomeSampler
	arena      *dtrace.Arena
	builder    dtrace.Builder
	pending    bool   // the last decision awaits its outcome window
	pendingVer uint64 // model version that made the pending decision
	outcomeIdx int    // index of the open outcome span (tracing)
	outHits    uint64 // cache counters at the decision instant
	outMisses  uint64
	prevRatePM int64 // previous window's hit rate (per-mille, -1 unknown)
	drift      *dtrace.DriftMonitor
	driftFeats []float64
	learner    Learner
}

// OutcomeSampler reports cumulative cache hit/miss counters; the tuner
// samples it at decision boundaries to attribute each decision's
// outcome (pagecache.Cache.HitMissCounts is the canonical source).
type OutcomeSampler func() (hits, misses uint64)

// Learner is the tuner's online-learning consumer (internal/olearn's
// Controller), handed each decision's control data directly rather than
// scraping it from an observer ring: AddSample receives the decision
// window's RAW (pre-normalization) candidate vector, the predicted
// class, and the window's event count; AddOutcome receives the
// decision's attributed outcome — the model version that made it and
// the cache hit rate, per mille, over the following window (only with
// TunerConfig.Outcome set, and only for windows that saw cache
// traffic). Both run inline on the decision tick, so they must be cheap
// and must not block; the vector is passed by value and safe to retain.
type Learner interface {
	AddSample(raw features.Vector, class int, events uint64)
	AddOutcome(version uint64, ratePM int64)
}

// NewTuner builds a tuner around a trained classifier and its fitted
// normalizer: a deployment that serves the one model as version 0.
func NewTuner(dev *blockdev.Device, model core.Classifier, norm features.Normalizer, cfg TunerConfig) (*Tuner, error) {
	if model == nil {
		return nil, errors.New("readahead: nil device or model")
	}
	return NewDeployedTuner(dev, mserve.NewDeployment(model, 0), norm, cfg)
}

// NewDeployedTuner builds a tuner whose classifier comes from a hot-swap
// deployment handle: every decision window dereferences the handle, so a
// Swap (retrain-and-redeploy, or a rollback) takes effect at the next
// tick without pausing collection. The deployment may be empty at
// construction time; ticks before the first Swap keep the device's
// current readahead untouched.
func NewDeployedTuner(dev *blockdev.Device, deploy *mserve.Deployment[core.Classifier], norm features.Normalizer, cfg TunerConfig) (*Tuner, error) {
	if dev == nil || deploy == nil {
		return nil, errors.New("readahead: nil device or deployment")
	}
	if cfg.Policy == (Policy{}) {
		cfg.Policy = DefaultPolicy(dev.Profile())
	}
	t := &Tuner{
		dev:        dev,
		deploy:     deploy,
		norm:       norm,
		policy:     cfg.Policy,
		outcome:    cfg.Outcome,
		featBuf:    make([]float64, features.Count),
		driftFeats: make([]float64, features.Count),
		prevRatePM: -1,
	}
	t.init(cfg.Window, func(batch []features.Record) {
		for _, r := range batch {
			t.ext.Add(r)
		}
	})
	return t, nil
}

// MaybeTick drains the collection ring into the feature window and, once
// per window, runs inference and applies the policy. The simulation loop
// calls it between operations, so the goroutine that runs the workload is
// the ring's one consumer.
func (t *Tuner) MaybeTick(now time.Duration) {
	if !t.due(now) {
		return
	}
	snap := t.deploy.Load()
	if snap == nil {
		return // nothing deployed yet; leave the device alone
	}
	// The window that just elapsed is the previous decision's outcome
	// window: attribute it and retire that trace before deciding again.
	t.closePending()

	// One wall-clock stamp per stage boundary: feature, normalize, infer,
	// apply, and the end of apply.
	featNS := time.Now().UnixNano()
	events := t.ext.Events()
	raw := t.ext.Emit(t.dev.ReadaheadSectors())
	normNS := time.Now().UnixNano()
	t.norm.ApplyInto(t.featBuf, raw)
	inferNS := time.Now().UnixNano()
	class := snap.Model.Predict(t.featBuf)
	applyNS := time.Now().UnixNano()
	sectors := t.policy[class%len(t.policy)]
	prevSectors := t.dev.ReadaheadSectors()
	t.dev.SetReadahead(sectors)
	doneNS := time.Now().UnixNano()

	if t.arena != nil {
		t.builder.Start(t.arena.NextID(), featNS)
		t.builder.SetValue(0, int64(class))
		t.builder.SetAux(0, int64(now))
		t.span(dtrace.StageFeature, featNS, normNS, int64(events), 0)
		t.span(dtrace.StageNormalize, normNS, inferNS, int64(len(t.featBuf)), 0)
		t.span(dtrace.StageInfer, inferNS, applyNS, int64(class), int64(snap.Version))
		t.span(dtrace.StageApply, applyNS, doneNS, int64(sectors), int64(prevSectors))
		// The outcome span stays open across the NEXT window; the trace
		// is retired at the next tick (or FlushTrace).
		t.outcomeIdx = t.builder.Begin(dtrace.StageOutcome, 0, doneNS)
	}
	if t.outcome != nil {
		t.outHits, t.outMisses = t.outcome()
	}
	t.pending, t.pendingVer = true, snap.Version
	if t.decCount != nil {
		t.inferNanos.Observe(applyNS - inferNS)
		t.decCount.Inc()
		if class >= 0 && class < len(t.classCount) {
			t.classCount[class].Inc()
		}
	}
	t.decisions = append(t.decisions, Decision{
		Time:    now,
		Class:   class,
		Sectors: sectors,
		Events:  events,
		Version: snap.Version,
	})
	if t.drift != nil {
		for i, c := range features.Selected {
			t.driftFeats[i] = raw[c]
		}
		t.drift.Observe(t.driftFeats, class)
	}
	if t.learner != nil {
		t.learner.AddSample(raw, class, events)
	}
}

// span adds one finished child span under the decision's root.
func (t *Tuner) span(stage dtrace.Stage, start, end, value, aux int64) {
	i := t.builder.Begin(stage, 0, start)
	t.builder.End(i, end)
	t.builder.SetValue(i, value)
	t.builder.SetAux(i, aux)
}

// closePending attributes the pending decision's outcome window: it
// samples the window's cache hit rate and hands (version, rate) to the
// learner — the decision's reward signal — and, when tracing, stamps the
// outcome span with the rate and its delta vs. the preceding window and
// retires the trace into the arena.
func (t *Tuner) closePending() {
	if !t.pending {
		return
	}
	t.pending = false
	ratePM := int64(-1)
	deltaPM := int64(0)
	if t.outcome != nil {
		hits, misses := t.outcome()
		dh, dm := hits-t.outHits, misses-t.outMisses
		if dh+dm > 0 {
			ratePM = int64(dh * 1000 / (dh + dm))
			if t.prevRatePM >= 0 {
				deltaPM = ratePM - t.prevRatePM
			}
			t.prevRatePM = ratePM
			if t.learner != nil {
				t.learner.AddOutcome(t.pendingVer, ratePM)
			}
		}
	}
	if t.arena == nil {
		return
	}
	wall := time.Now().UnixNano()
	t.builder.End(t.outcomeIdx, wall)
	t.builder.SetValue(t.outcomeIdx, deltaPM)
	t.builder.SetAux(t.outcomeIdx, ratePM)
	t.arena.Record(t.builder.Finish(wall))
}

// Instrument attaches telemetry to the tuner: readahead_infer_ns times
// each model.Predict (the paper's 21 µs per-inference figure, measured
// live), readahead_decisions counts decision windows (the tuner's
// throughput series in MsgTimeSeries), readahead_decision_class_<i>
// counts decisions per predicted class, and the collection ring's
// counters become gauges under readahead_pipeline. Call before the tuner
// runs.
func (t *Tuner) Instrument(reg *telemetry.Registry) {
	t.inferNanos = reg.Histogram("readahead_infer_ns")
	t.decCount = reg.Counter("readahead_decisions")
	for i := range t.classCount {
		t.classCount[i] = reg.Counter(fmt.Sprintf("readahead_decision_class_%d", i))
	}
	t.registerMetrics(reg)
}

// EnableTracing attaches a dtrace arena: every subsequent decision
// window mints a TraceID and records child spans for feature
// aggregation, normalization, inference, and the readahead change,
// plus an outcome span over the FOLLOWING window stamped with the
// attributed hit rate (TunerConfig.Outcome; -1 without one), so each
// retained trace answers both "why" and "did it help". Call before the
// tuner runs; the traced tick performs no allocation.
func (t *Tuner) EnableTracing(a *dtrace.Arena) { t.arena = a }

// SetLearner attaches the online-learning consumer. Call once, before
// the tuner runs.
func (t *Tuner) SetLearner(l Learner) { t.learner = l }

// FlushTrace attributes the in-flight decision (and retires its trace)
// without waiting for the next tick, over whatever fraction of the
// outcome window has elapsed. Call at the end of a run so the final
// decision is not lost.
func (t *Tuner) FlushTrace() { t.closePending() }

// InstrumentDrift attaches a drift monitor that checks, every `window`
// decisions (0 = dtrace.DefaultDriftWindow), whether the live feature
// population still matches the TRAINING-TIME statistics frozen in the
// tuner's normalizer — plus prediction churn and class distribution.
// Gauges register under "readahead_drift" when reg is non-nil. Returns
// the monitor for direct DriftReport access.
func (t *Tuner) InstrumentDrift(reg *telemetry.Registry, window int) *dtrace.DriftMonitor {
	means, stds := t.norm.SelectedStats()
	m := dtrace.NewDriftMonitor(dtrace.DriftConfig{
		Features:   features.Count,
		Classes:    workload.NumClasses,
		Window:     window,
		TrainMeans: means[:],
		TrainStds:  stds[:],
	})
	if reg != nil {
		m.RegisterMetrics(reg, "readahead_drift")
	}
	t.drift = m
	return m
}

// Decisions returns the tuning history (the Figure-2 readahead series).
func (t *Tuner) Decisions() []Decision { return t.decisions }
