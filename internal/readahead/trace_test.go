package readahead

import (
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/dtrace"
	"repro/internal/features"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// traceTestLoop drives a traced tuner for `windows` decision windows.
// The fake outcome counters are bumped AFTER each decision tick, i.e.
// during that decision's outcome window, so attribution lines up.
func traceTestLoop(t *testing.T, tuner *Tuner, clk *clock.Virtual, windows int, hits, misses uint64, counters *[2]uint64) {
	t.Helper()
	hook := tuner.Hook()
	tuner.MaybeTick(clk.Now())
	for w := 0; w < windows; w++ {
		for i := 0; i < 50; i++ {
			hook(trace.Event{Point: trace.AddToPageCache, Inode: 1, Offset: int64(i), Time: clk.Now()})
		}
		clk.Advance(1100 * time.Millisecond)
		tuner.MaybeTick(clk.Now())
		counters[0] += hits
		counters[1] += misses
	}
}

// TestTunerDecisionTrace checks the acceptance-criteria trace shape: one
// TraceID per decision window with feature → normalize → infer → apply
// → outcome child spans, outcome attribution from the cache counters,
// and every trace complete after FlushTrace.
func TestTunerDecisionTrace(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	var counters [2]uint64
	tuner, err := NewTuner(dev, fixedClassifier(1), features.Normalizer{},
		TunerConfig{Outcome: func() (uint64, uint64) { return counters[0], counters[1] }})
	if err != nil {
		t.Fatal(err)
	}
	arena := dtrace.NewArena(16)
	tuner.EnableTracing(arena)

	const windows = 6
	traceTestLoop(t, tuner, clk, windows, 90, 10, &counters)
	tuner.FlushTrace()

	traces := arena.Snapshot()
	if len(traces) != windows {
		t.Fatalf("arena retained %d traces, want %d", len(traces), windows)
	}
	wantStages := []dtrace.Stage{
		dtrace.StageDecision, dtrace.StageFeature, dtrace.StageNormalize,
		dtrace.StageInfer, dtrace.StageApply, dtrace.StageOutcome,
	}
	var lastID dtrace.TraceID
	for ti := range traces {
		tr := &traces[ti]
		if !tr.Complete() {
			t.Fatalf("trace %d incomplete: %+v", ti, tr)
		}
		if tr.ID <= lastID {
			t.Fatalf("trace IDs not increasing: %d after %d", tr.ID, lastID)
		}
		lastID = tr.ID
		if int(tr.N) != len(wantStages) {
			t.Fatalf("trace %d has %d spans, want %d", ti, tr.N, len(wantStages))
		}
		for si, s := range tr.Used() {
			if s.Stage != wantStages[si] {
				t.Fatalf("trace %d span %d stage %v, want %v", ti, si, s.Stage, wantStages[si])
			}
			if si > 0 && s.Parent != 1 {
				t.Fatalf("trace %d span %d parent %d, want root", ti, si, s.Parent)
			}
		}
		root := tr.Root()
		if root.Value != 1 {
			t.Errorf("trace %d root class %d, want 1", ti, root.Value)
		}
		feat := tr.Spans[1]
		if feat.Value != 50 {
			t.Errorf("trace %d feature span events %d, want 50", ti, feat.Value)
		}
		if got := tr.Spans[2].Value; got != int64(features.Count) {
			t.Errorf("trace %d normalize span nfeat %d, want %d", ti, got, features.Count)
		}
		infer := tr.Spans[3]
		if infer.Value != 1 || infer.Aux != 0 {
			t.Errorf("trace %d infer span class/version %d/%d, want 1/0", ti, infer.Value, infer.Aux)
		}
		apply := tr.Spans[4]
		if apply.Value != 8 {
			t.Errorf("trace %d apply span sectors %d, want 8", ti, apply.Value)
		}
		outcome := tr.Spans[5]
		if outcome.Aux != 900 {
			t.Errorf("trace %d outcome hit rate %d pm, want 900", ti, outcome.Aux)
		}
		if outcome.Value != 0 {
			t.Errorf("trace %d outcome delta %d pm, want 0 (steady workload)", ti, outcome.Value)
		}
		// The outcome span covers the window AFTER the decision.
		if outcome.End < apply.End {
			t.Errorf("trace %d outcome ends before apply", ti)
		}
	}
}

// TestTunerTraceOutcomeDelta checks that a hit-rate change between
// consecutive outcome windows lands in the outcome span's delta.
func TestTunerTraceOutcomeDelta(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	var counters [2]uint64
	tuner, err := NewTuner(dev, fixedClassifier(0), features.Normalizer{},
		TunerConfig{Outcome: func() (uint64, uint64) { return counters[0], counters[1] }})
	if err != nil {
		t.Fatal(err)
	}
	arena := dtrace.NewArena(16)
	tuner.EnableTracing(arena)

	hook := tuner.Hook()
	tuner.MaybeTick(clk.Now())
	rates := [][2]uint64{{50, 50}, {90, 10}} // 500 pm then 900 pm
	for _, r := range rates {
		hook(trace.Event{Point: trace.AddToPageCache, Inode: 1, Time: clk.Now()})
		clk.Advance(1100 * time.Millisecond)
		tuner.MaybeTick(clk.Now())
		// This decision's outcome window sees rate r.
		counters[0] += r[0]
		counters[1] += r[1]
	}
	tuner.FlushTrace()

	traces := arena.Snapshot()
	if len(traces) != 2 {
		t.Fatalf("retained %d traces, want 2", len(traces))
	}
	first, second := traces[0].Spans[5], traces[1].Spans[5]
	if first.Aux != 500 || first.Value != 0 {
		t.Fatalf("first outcome rate/delta = %d/%d, want 500/0", first.Aux, first.Value)
	}
	if second.Aux != 900 || second.Value != 400 {
		t.Fatalf("second outcome rate/delta = %d/%d, want 900/400", second.Aux, second.Value)
	}
}

// TestTunerTraceNoOutcomeSampler: tracing without an outcome source
// still produces complete traces, with the rate marked unknown (-1).
func TestTunerTraceNoOutcomeSampler(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	tuner, err := NewTuner(dev, fixedClassifier(0), features.Normalizer{}, TunerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	arena := dtrace.NewArena(4)
	tuner.EnableTracing(arena)
	var counters [2]uint64
	traceTestLoop(t, tuner, clk, 2, 0, 0, &counters)
	tuner.FlushTrace()
	traces := arena.Snapshot()
	if len(traces) != 2 {
		t.Fatalf("retained %d traces, want 2", len(traces))
	}
	for i := range traces {
		out := traces[i].Spans[5]
		if out.Aux != -1 || out.Value != 0 {
			t.Fatalf("trace %d outcome rate/delta = %d/%d, want -1/0", i, out.Aux, out.Value)
		}
		if !traces[i].Complete() {
			t.Fatalf("trace %d incomplete", i)
		}
	}
}

// recordingLearner captures the tuner's hand-off.
type recordingLearner struct {
	samples  int
	outcomes [][2]int64 // (version, ratePM)
}

func (l *recordingLearner) AddSample(features.Vector, int, uint64) { l.samples++ }
func (l *recordingLearner) AddOutcome(version uint64, ratePM int64) {
	l.outcomes = append(l.outcomes, [2]int64{int64(version), ratePM})
}

// TestTunerHandsOutcomesToLearner: with an outcome sampler and no
// tracing, every decision's sample and attributed outcome still reach
// the learner, and a window without cache traffic hands over no outcome.
func TestTunerHandsOutcomesToLearner(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	var counters [2]uint64
	tuner, err := NewTuner(dev, fixedClassifier(0), features.Normalizer{},
		TunerConfig{Outcome: func() (uint64, uint64) { return counters[0], counters[1] }})
	if err != nil {
		t.Fatal(err)
	}
	var l recordingLearner
	tuner.SetLearner(&l)
	hook := tuner.Hook()
	tuner.MaybeTick(clk.Now())
	for _, r := range [][2]uint64{{50, 50}, {0, 0}, {90, 10}} {
		hook(trace.Event{Point: trace.AddToPageCache, Inode: 1, Time: clk.Now()})
		clk.Advance(1100 * time.Millisecond)
		tuner.MaybeTick(clk.Now())
		counters[0] += r[0]
		counters[1] += r[1]
	}
	tuner.FlushTrace()
	if l.samples != 3 {
		t.Fatalf("learner got %d samples, want 3", l.samples)
	}
	if want := [][2]int64{{0, 500}, {0, 900}}; len(l.outcomes) != 2 || l.outcomes[0] != want[0] || l.outcomes[1] != want[1] {
		t.Fatalf("learner outcomes = %v, want %v", l.outcomes, want)
	}
}

// TestTunerInstrumentDrift checks the drift monitor wiring: baselined
// on the normalizer's training stats, observing one decision per
// window, gauges registered under readahead_drift.
func TestTunerInstrumentDrift(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	// A normalizer with non-degenerate stats so shifts stay finite.
	var norm features.Normalizer
	for i := range norm.Z {
		norm.Z[i].Mean = 0
		norm.Z[i].StdDev = 1
	}
	tuner, err := NewTuner(dev, fixedClassifier(1), norm, TunerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	mon := tuner.InstrumentDrift(reg, 3)
	if mon == nil || mon.Window() != 3 {
		t.Fatalf("InstrumentDrift window = %v", mon)
	}
	var counters [2]uint64
	traceTestLoop(t, tuner, clk, 7, 0, 0, &counters)

	r := mon.Report()
	if r.Decisions != 7 {
		t.Fatalf("drift observed %d decisions, want 7", r.Decisions)
	}
	if r.Windows != 2 {
		t.Fatalf("drift completed %d windows, want 2", r.Windows)
	}
	if !r.BaselineReady {
		t.Fatal("baseline should come from the normalizer's training stats")
	}
	if r.ClassSharePM[1] != 1000 {
		t.Fatalf("class share = %v, want all class 1", r.ClassSharePM)
	}
	// Gauges exist under the readahead_drift prefix.
	found := false
	for _, s := range reg.Snapshot() {
		if s.Name == "readahead_drift_windows" {
			found = true
			if s.Value != 2 {
				t.Fatalf("readahead_drift_windows = %d, want 2", s.Value)
			}
		}
	}
	if !found {
		t.Fatal("readahead_drift gauges not registered")
	}
}
