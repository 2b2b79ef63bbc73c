package readahead_test

import (
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/features"
	"repro/internal/readahead"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// These tests pin the data path the package doc describes, end to end
// through the readahead tuner's public API: the tracepoint hook pushes
// each record onto the lock-free ring, and MaybeTick drains the ring
// into the tuner's feature window.

// recordingClassifier is a readahead.Classifier that keeps the last input it
// was asked to classify.
type recordingClassifier struct{ last []float64 }

func (c *recordingClassifier) Predict(f []float64) int {
	c.last = append(c.last[:0], f...)
	return 0
}

var _ readahead.Classifier = (*recordingClassifier)(nil)

// newPipelineTuner returns a tuner with a 1 s window whose normalizer
// passes features through unchanged, armed at time 0, and its registry.
func newPipelineTuner(t *testing.T, model readahead.Classifier) (*readahead.Tuner, *telemetry.Registry) {
	t.Helper()
	dev := blockdev.New(blockdev.NVMe(), clock.New())
	var norm features.Normalizer
	for i := range norm.Z {
		norm.Z[i].StdDev = 1
	}
	tuner, err := readahead.NewTuner(dev, model, norm, readahead.TunerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tuner.Instrument(reg)
	tuner.MaybeTick(0)
	return tuner, reg
}

// pipelineGauges returns the tuner's readahead_pipeline_* gauges by name.
func pipelineGauges(reg *telemetry.Registry) map[string]int64 {
	vals := map[string]int64{}
	for _, s := range reg.Snapshot() {
		if s.Kind == telemetry.KindFunc {
			vals[s.Name] = s.Value
		}
	}
	return vals
}

// TestPipelineCollectAndFlush: every collected record reaches the window
// at the tick, in the order the hook saw it. Offsets 0..9 in order give
// a mean |Δoffset| of 1 and a Δ sign of +1; any other drain order gives
// a negative step and a smaller sign.
func TestPipelineCollectAndFlush(t *testing.T) {
	model := &recordingClassifier{}
	tuner, _ := newPipelineTuner(t, model)
	hook := tuner.Hook()
	for i := 0; i < 10; i++ {
		hook(trace.Event{Point: trace.AddToPageCache, Inode: 1, Offset: int64(i)})
	}
	tuner.MaybeTick(time.Second)
	if c, d := tuner.Collected(), tuner.Dropped(); c != 10 || d != 0 {
		t.Errorf("Collected %d, Dropped %d; want 10, 0", c, d)
	}
	if d := tuner.Decisions(); len(d) != 1 || d[0].Events != 10 {
		t.Fatalf("decisions %+v, want one over 10 events", d)
	}
	if len(model.last) != features.Count {
		t.Fatalf("model saw %d features, want %d", len(model.last), features.Count)
	}
	if absDelta, sign := model.last[0], model.last[1]; absDelta != 1 || sign != 1 {
		t.Errorf("mean |Δoffset| %v, Δ sign %v; want 1, 1 (records drained out of order)", absDelta, sign)
	}
}

// TestPipelineDropsWhenFull: the hook accepts records until the ring is
// full and counts the rest as dropped; the tick drains the accepted ones.
func TestPipelineDropsWhenFull(t *testing.T) {
	tuner, reg := newPipelineTuner(t, &recordingClassifier{})
	capacity := pipelineGauges(reg)["readahead_pipeline_buffer_cap"]
	if capacity <= 0 {
		t.Fatalf("buffer_cap gauge %d", capacity)
	}
	hook := tuner.Hook()
	for i := int64(0); i < capacity+6; i++ {
		hook(trace.Event{Point: trace.AddToPageCache, Inode: 1, Offset: i})
	}
	if c, d := tuner.Collected(), tuner.Dropped(); c != uint64(capacity) || d != 6 {
		t.Errorf("Collected %d, Dropped %d; want %d, 6", c, d, capacity)
	}
	tuner.MaybeTick(time.Second)
	if d := tuner.Decisions(); len(d) != 1 || d[0].Events != uint64(capacity) {
		t.Fatalf("decisions %+v, want one over %d events", d, capacity)
	}
}

// TestPipelineGauges pins the ring's gauges after a drain: they mirror
// the tuner's own counters and the emptied ring.
func TestPipelineGauges(t *testing.T) {
	tuner, reg := newPipelineTuner(t, &recordingClassifier{})
	hook := tuner.Hook()
	const n = 40
	for i := 0; i < n; i++ {
		hook(trace.Event{Point: trace.AddToPageCache, Inode: 1, Offset: int64(i)})
	}
	tuner.MaybeTick(500 * time.Millisecond) // drains mid-window
	vals := pipelineGauges(reg)
	for name, want := range map[string]int64{
		"readahead_pipeline_collected":  n,
		"readahead_pipeline_dropped":    0,
		"readahead_pipeline_buffer_len": 0,
		"readahead_pipeline_buffer_cap": 1 << 16,
	} {
		if got, ok := vals[name]; !ok || got != want {
			t.Errorf("%s = %d (registered %v), want %d", name, got, ok, want)
		}
	}
	if int64(tuner.Collected()) != vals["readahead_pipeline_collected"] ||
		int64(tuner.Dropped()) != vals["readahead_pipeline_dropped"] {
		t.Errorf("gauges %v disagree with Collected %d, Dropped %d", vals, tuner.Collected(), tuner.Dropped())
	}
	tuner.MaybeTick(time.Second)
	if d := tuner.Decisions(); len(d) != 1 || d[0].Events != n {
		t.Fatalf("decisions %+v, want one over %d events", d, n)
	}
}

// TestPipelineFlushAllocFree gates the drain the simulation loop runs
// once per operation: a mid-window MaybeTick allocates nothing, neither
// on an empty ring nor when it drains a full 256-record batch.
func TestPipelineFlushAllocFree(t *testing.T) {
	tuner, _ := newPipelineTuner(t, &recordingClassifier{})
	hook := tuner.Hook()
	drain := func() { tuner.MaybeTick(500 * time.Millisecond) }
	if a := testing.AllocsPerRun(1000, drain); a != 0 {
		t.Errorf("drain of an empty ring allocates %.1f/run, want 0", a)
	}
	const batch = 256
	runs := 0
	if a := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			hook(trace.Event{Point: trace.AddToPageCache, Inode: 1, Offset: int64(i)})
		}
		drain()
		runs++
	}); a != 0 {
		t.Errorf("drain of %d records allocates %.1f/run, want 0", batch, a)
	}
	tuner.MaybeTick(time.Second)
	want := uint64(runs * batch)
	if d := tuner.Decisions(); tuner.Collected() != want || tuner.Dropped() != 0 || len(d) != 1 || d[0].Events != want {
		t.Errorf("Collected %d, Dropped %d, decisions %+v; want %d records in one window",
			tuner.Collected(), tuner.Dropped(), d, want)
	}
}
