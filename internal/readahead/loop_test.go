package readahead

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/features"
	"repro/internal/mserve"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// patternClassifier reads the window's access pattern off the selected
// features (under an identity normalizer): mostly writes → 3, ascending
// → 0, descending → 2, anything else → 1.
type patternClassifier struct{}

func (patternClassifier) Name() string { return "pattern" }
func (patternClassifier) Predict(f []float64) int {
	switch {
	case f[2] > 0.5:
		return 3
	case f[1] > 0.5:
		return 0
	case f[1] < -0.5:
		return 2
	}
	return 1
}

// identityNorm standardizes with mean 0 and stddev 1, so the classifier
// sees raw feature values (clipped to ±3).
func identityNorm() features.Normalizer {
	var n features.Normalizer
	for i := range n.Z {
		n.Z[i].StdDev = 1
	}
	return n
}

// scriptedWindow feeds window w's events: the pattern cycles ascending,
// random, descending, write-heavy, and window 5 is silent.
func scriptedWindow(hook trace.Hook, w int, now time.Duration) {
	if w == 5 {
		return
	}
	n := 20 + 7*w
	lcg := uint64(w + 1)
	for i := 0; i < n; i++ {
		ev := trace.Event{Point: trace.AddToPageCache, Inode: uint64(1 + i%3), Time: now}
		switch w % 4 {
		case 0:
			ev.Offset = int64(i)
		case 1:
			lcg = lcg*6364136223846793005 + 1442695040888963407
			ev.Offset = int64(lcg >> 40)
		case 2:
			ev.Offset = int64(1000 - i)
		case 3:
			ev.Offset = int64(i * 5)
			if i%4 != 0 {
				ev.Point = trace.WritebackDirtyPage
			}
		}
		hook(ev)
	}
}

// goldenLearner logs the tuner's hand-off.
type goldenLearner struct{ log *strings.Builder }

func (l goldenLearner) AddSample(raw features.Vector, class int, events uint64) {
	fmt.Fprintf(l.log, "sample class=%d events=%d sign=%.3f write=%.3f ra=%g\n",
		class, events, raw[features.FeatDeltaSign], raw[features.FeatWriteFrac], raw[features.FeatReadahead])
}

func (l goldenLearner) AddOutcome(version uint64, ratePM int64) {
	fmt.Fprintf(l.log, "outcome v%d rate=%dpm\n", version, ratePM)
}

// runDecisionPath drives a traced tuner with an outcome sampler and a
// learner over ten scripted windows and renders everything the decision
// path produced: learner hand-offs, decisions, and each trace's spans
// (stage, parent, value, aux). swap, when set, runs before window w.
func runDecisionPath(t *testing.T, mk func(*blockdev.Device, TunerConfig) (*Tuner, error), swap func(w int)) string {
	t.Helper()
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	var counters [2]uint64
	tuner, err := mk(dev, TunerConfig{
		Policy:  Policy{0: 1024, 1: 8, 2: 16, 3: 32},
		Outcome: func() (uint64, uint64) { return counters[0], counters[1] },
	})
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	tuner.SetLearner(goldenLearner{&log})
	arena := dtrace.NewArena(16)
	tuner.EnableTracing(arena)

	hook := tuner.Hook()
	tuner.MaybeTick(clk.Now())
	for w := 0; w < 10; w++ {
		if swap != nil {
			swap(w)
		}
		scriptedWindow(hook, w, clk.Now())
		clk.Advance(1100 * time.Millisecond)
		tuner.MaybeTick(clk.Now())
		if w != 6 { // window 6's outcome window sees no cache traffic
			counters[0] += uint64(10*w + 5)
			counters[1] += uint64(3 * w)
		}
	}
	tuner.FlushTrace()

	for _, d := range tuner.Decisions() {
		fmt.Fprintf(&log, "decision t=%v class=%d sectors=%d events=%d v%d\n",
			d.Time, d.Class, d.Sectors, d.Events, d.Version)
	}
	traces := arena.Snapshot()
	for ti := range traces {
		tr := &traces[ti]
		if !tr.Complete() {
			t.Fatalf("trace %d incomplete: %+v", tr.ID, tr)
		}
		fmt.Fprintf(&log, "trace %d:", tr.ID)
		prevEnd := tr.Spans[0].Start
		for si, s := range tr.Used() {
			fmt.Fprintf(&log, " %v(p%d %d %d)", s.Stage, s.Parent, s.Value, s.Aux)
			if si == 0 {
				continue
			}
			// The children run back to back, in order, inside the root.
			if s.Start < prevEnd || s.End < s.Start || s.End > tr.Spans[0].End {
				t.Errorf("trace %d span %d [%d,%d] out of order (previous end %d, root end %d)",
					tr.ID, si, s.Start, s.End, prevEnd, tr.Spans[0].End)
			}
			prevEnd = s.End
		}
		log.WriteString("\n")
	}
	return log.String()
}

// TestDecisionPathGolden pins everything a decision produces — the
// learner's samples and outcomes, the Decision records, and each trace's
// span tree with its values — for a static model and for a deployment
// that starts empty and is swapped twice.
func TestDecisionPathGolden(t *testing.T) {
	static := runDecisionPath(t, func(dev *blockdev.Device, cfg TunerConfig) (*Tuner, error) {
		return NewTuner(dev, patternClassifier{}, identityNorm(), cfg)
	}, nil)
	if static != goldenStatic {
		t.Errorf("static decision path:\n%s\nwant:\n%s", static, goldenStatic)
	}

	var deploy mserve.Deployment[core.Classifier]
	deployed := runDecisionPath(t, func(dev *blockdev.Device, cfg TunerConfig) (*Tuner, error) {
		return NewDeployedTuner(dev, &deploy, identityNorm(), cfg)
	}, func(w int) {
		switch w {
		case 2:
			deploy.Swap(patternClassifier{}, 3)
		case 6:
			deploy.Swap(fixedClassifier(2), 5)
		}
	})
	if deployed != goldenDeployed {
		t.Errorf("deployed decision path:\n%s\nwant:\n%s", deployed, goldenDeployed)
	}
}

const goldenStatic = `sample class=0 events=20 sign=1.000 write=0.000 ra=256
outcome v0 rate=1000pm
sample class=1 events=27 sign=-0.154 write=0.000 ra=1024
outcome v0 rate=833pm
sample class=2 events=34 sign=-1.000 write=0.000 ra=8
outcome v0 rate=806pm
sample class=3 events=41 sign=1.000 write=0.732 ra=16
outcome v0 rate=795pm
sample class=0 events=48 sign=1.000 write=0.000 ra=32
outcome v0 rate=789pm
sample class=1 events=0 sign=0.000 write=0.000 ra=1024
outcome v0 rate=785pm
sample class=2 events=62 sign=-1.000 write=0.000 ra=8
sample class=3 events=69 sign=1.000 write=0.739 ra=16
outcome v0 rate=781pm
sample class=0 events=76 sign=1.000 write=0.000 ra=32
outcome v0 rate=779pm
sample class=1 events=83 sign=-0.024 write=0.000 ra=1024
outcome v0 rate=778pm
decision t=1.1s class=0 sectors=1024 events=20 v0
decision t=2.2s class=1 sectors=8 events=27 v0
decision t=3.3s class=2 sectors=16 events=34 v0
decision t=4.4s class=3 sectors=32 events=41 v0
decision t=5.5s class=0 sectors=1024 events=48 v0
decision t=6.6s class=1 sectors=8 events=0 v0
decision t=7.7s class=2 sectors=16 events=62 v0
decision t=8.8s class=3 sectors=32 events=69 v0
decision t=9.9s class=0 sectors=1024 events=76 v0
decision t=11s class=1 sectors=8 events=83 v0
trace 1: decision(p0 0 1100000000) feature(p1 20 0) normalize(p1 4 0) infer(p1 0 0) apply(p1 1024 256) outcome(p1 0 1000)
trace 2: decision(p0 1 2200000000) feature(p1 27 0) normalize(p1 4 0) infer(p1 1 0) apply(p1 8 1024) outcome(p1 -167 833)
trace 3: decision(p0 2 3300000000) feature(p1 34 0) normalize(p1 4 0) infer(p1 2 0) apply(p1 16 8) outcome(p1 -27 806)
trace 4: decision(p0 3 4400000000) feature(p1 41 0) normalize(p1 4 0) infer(p1 3 0) apply(p1 32 16) outcome(p1 -11 795)
trace 5: decision(p0 0 5500000000) feature(p1 48 0) normalize(p1 4 0) infer(p1 0 0) apply(p1 1024 32) outcome(p1 -6 789)
trace 6: decision(p0 1 6600000000) feature(p1 0 0) normalize(p1 4 0) infer(p1 1 0) apply(p1 8 1024) outcome(p1 -4 785)
trace 7: decision(p0 2 7700000000) feature(p1 62 0) normalize(p1 4 0) infer(p1 2 0) apply(p1 16 8) outcome(p1 0 -1)
trace 8: decision(p0 3 8800000000) feature(p1 69 0) normalize(p1 4 0) infer(p1 3 0) apply(p1 32 16) outcome(p1 -4 781)
trace 9: decision(p0 0 9900000000) feature(p1 76 0) normalize(p1 4 0) infer(p1 0 0) apply(p1 1024 32) outcome(p1 -2 779)
trace 10: decision(p0 1 11000000000) feature(p1 83 0) normalize(p1 4 0) infer(p1 1 0) apply(p1 8 1024) outcome(p1 -1 778)
`

const goldenDeployed = `sample class=1 events=81 sign=-0.225 write=0.000 ra=256
outcome v3 rate=806pm
sample class=3 events=41 sign=1.000 write=0.732 ra=8
outcome v3 rate=795pm
sample class=0 events=48 sign=1.000 write=0.000 ra=32
outcome v3 rate=789pm
sample class=1 events=0 sign=0.000 write=0.000 ra=1024
outcome v3 rate=785pm
sample class=2 events=62 sign=-1.000 write=0.000 ra=8
sample class=2 events=69 sign=1.000 write=0.739 ra=16
outcome v5 rate=781pm
sample class=2 events=76 sign=1.000 write=0.000 ra=16
outcome v5 rate=779pm
sample class=2 events=83 sign=-0.024 write=0.000 ra=16
outcome v5 rate=778pm
decision t=3.3s class=1 sectors=8 events=81 v3
decision t=4.4s class=3 sectors=32 events=41 v3
decision t=5.5s class=0 sectors=1024 events=48 v3
decision t=6.6s class=1 sectors=8 events=0 v3
decision t=7.7s class=2 sectors=16 events=62 v5
decision t=8.8s class=2 sectors=16 events=69 v5
decision t=9.9s class=2 sectors=16 events=76 v5
decision t=11s class=2 sectors=16 events=83 v5
trace 1: decision(p0 1 3300000000) feature(p1 81 0) normalize(p1 4 0) infer(p1 1 3) apply(p1 8 256) outcome(p1 0 806)
trace 2: decision(p0 3 4400000000) feature(p1 41 0) normalize(p1 4 0) infer(p1 3 3) apply(p1 32 8) outcome(p1 -11 795)
trace 3: decision(p0 0 5500000000) feature(p1 48 0) normalize(p1 4 0) infer(p1 0 3) apply(p1 1024 32) outcome(p1 -6 789)
trace 4: decision(p0 1 6600000000) feature(p1 0 0) normalize(p1 4 0) infer(p1 1 3) apply(p1 8 1024) outcome(p1 -4 785)
trace 5: decision(p0 2 7700000000) feature(p1 62 0) normalize(p1 4 0) infer(p1 2 5) apply(p1 16 8) outcome(p1 0 -1)
trace 6: decision(p0 2 8800000000) feature(p1 69 0) normalize(p1 4 0) infer(p1 2 5) apply(p1 16 16) outcome(p1 -4 781)
trace 7: decision(p0 2 9900000000) feature(p1 76 0) normalize(p1 4 0) infer(p1 2 5) apply(p1 16 16) outcome(p1 -2 779)
trace 8: decision(p0 2 11000000000) feature(p1 83 0) normalize(p1 4 0) infer(p1 2 5) apply(p1 16 16) outcome(p1 -1 778)
`

// countingLearner is a learner that allocates nothing.
type countingLearner struct{ samples, outcomes int }

func (l *countingLearner) AddSample(features.Vector, int, uint64) { l.samples++ }
func (l *countingLearner) AddOutcome(uint64, int64)               { l.outcomes++ }

// TestDecisionTickAllocFree gates the decision tick with every
// attachment on — telemetry, drift, tracing, a learner and outcome
// attribution: once the decision history has capacity, deciding
// allocates nothing.
func TestDecisionTickAllocFree(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	var counters [2]uint64
	tuner, err := NewTuner(dev, patternClassifier{}, identityNorm(), TunerConfig{
		Outcome: func() (uint64, uint64) { return counters[0], counters[1] },
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tuner.Instrument(reg)
	tuner.InstrumentDrift(reg, 4)
	tuner.EnableTracing(dtrace.NewArena(8))
	var l countingLearner
	tuner.SetLearner(&l)
	tuner.decisions = make([]Decision, 0, 4096)

	hook := tuner.Hook()
	tuner.MaybeTick(clk.Now())
	w := 0
	decide := func() {
		scriptedWindow(hook, w%5, clk.Now())
		w++
		clk.Advance(1100 * time.Millisecond)
		tuner.MaybeTick(clk.Now())
		counters[0] += 90
		counters[1] += 10
	}
	if a := testing.AllocsPerRun(200, decide); a != 0 {
		t.Errorf("decision tick allocates %.1f/run, want 0", a)
	}
	if n := len(tuner.Decisions()); n != w {
		t.Fatalf("%d decisions over %d windows", n, w)
	}
	if l.samples != w || l.outcomes != w-1 {
		t.Fatalf("learner saw %d samples and %d outcomes over %d windows", l.samples, l.outcomes, w)
	}
}

// TestLoopRingFull overfills the collection ring within one window: the
// hook accepts exactly the ring's capacity and counts the rest as
// dropped, the gauges report both and the full ring, and the window's
// tick drains every accepted record into the decision.
func TestLoopRingFull(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	tuner, err := NewTuner(dev, fixedClassifier(1), features.Normalizer{}, TunerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tuner.Instrument(reg)
	gauges := func() map[string]int64 {
		vals := map[string]int64{}
		for _, s := range reg.Snapshot() {
			vals[s.Name] = s.Value
		}
		return vals
	}

	tuner.MaybeTick(0) // arms the first window
	hook := tuner.Hook()
	for i := 0; i < ringCapacity+10; i++ {
		hook(trace.Event{Point: trace.AddToPageCache, Inode: 1, Offset: int64(i)})
	}
	if c, d := tuner.Collected(), tuner.Dropped(); c != ringCapacity || d != 10 {
		t.Fatalf("Collected %d, Dropped %d; want %d, 10", c, d, ringCapacity)
	}
	vals := gauges()
	for name, want := range map[string]int64{
		"readahead_pipeline_collected":  ringCapacity,
		"readahead_pipeline_dropped":    10,
		"readahead_pipeline_buffer_len": ringCapacity,
		"readahead_pipeline_buffer_cap": ringCapacity,
	} {
		if got, ok := vals[name]; !ok || got != want {
			t.Errorf("%s = %d (registered %v), want %d", name, got, ok, want)
		}
	}
	if _, ok := vals["readahead_pipeline_processed"]; ok {
		t.Error("readahead_pipeline_processed is registered")
	}

	tuner.MaybeTick(time.Second)
	if got := gauges()["readahead_pipeline_buffer_len"]; got != 0 {
		t.Errorf("buffer_len %d after the tick, want 0", got)
	}
	if d := tuner.Decisions(); len(d) != 1 || d[0].Events != ringCapacity {
		t.Fatalf("decisions %+v, want one over %d events", d, ringCapacity)
	}
}

// TestFileTunerDecisionOrder feeds one stream through two per-file
// tuners and requires the same decision list: a window's files are
// decided in ascending inode order, not map order.
func TestFileTunerDecisionOrder(t *testing.T) {
	run := func() []FileDecision {
		tuner, _, _, clk := newFileTunerFixture(t, perInodeClassifier{})
		hook := tuner.Hook()
		tuner.MaybeTick(clk.Now())
		for w := 0; w < 10; w++ {
			for i := 0; i < 40; i++ {
				for ino := uint64(1); ino <= 4; ino++ {
					off := int64(i)
					if ino%2 == 0 {
						off = int64(1000 - i)
					}
					hook(trace.Event{Point: trace.AddToPageCache, Inode: ino, Offset: off, Time: clk.Now()})
				}
			}
			clk.Advance(1100 * time.Millisecond)
			tuner.MaybeTick(clk.Now())
		}
		return tuner.Decisions()
	}
	a, b := run(), run()
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("%d and %d decisions, want 40 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical runs: %+v vs %+v", i, a[i], b[i])
		}
		if want := uint64(1 + i%4); a[i].Inode != want {
			t.Fatalf("decision %d is inode %d, want %d (ascending inode order)", i, a[i].Inode, want)
		}
	}
}
