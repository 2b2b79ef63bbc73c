package readahead

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestModelArchitecture(t *testing.T) {
	net := NewModel(1)
	if net.InDim() != features.Count || net.OutDim() != workload.NumClasses {
		t.Errorf("dims %d→%d", net.InDim(), net.OutDim())
	}
	// Three linear layers with sigmoids between (paper §4).
	if got := net.String(); got != "linear(4→15) → sigmoid → linear(15→15) → sigmoid → linear(15→4)" {
		t.Errorf("architecture %q", got)
	}
	// The paper reports 3,916 bytes of model memory; ours is the same
	// order of magnitude.
	if b := net.ParamBytes(); b < 2000 || b > 8000 {
		t.Errorf("model bytes %d outside the paper's order of magnitude", b)
	}
}

// syntheticDataset builds raw vectors with class-dependent structure
// resembling the real features.
func syntheticDataset(n int, seed int64) ([]features.Vector, []int) {
	rng := rand.New(rand.NewSource(seed))
	var raw []features.Vector
	var labels []int
	for i := 0; i < n; i++ {
		class := i % workload.NumClasses
		var v features.Vector
		switch class {
		case 0: // seq: many events, ascending deltas, no writes
			v = features.Vector{200000 + rng.Float64()*20000, 5000, 3000, 1.3, 0.98, 0, 256}
		case 1: // random: large jumps, no writes
			v = features.Vector{40000 + rng.Float64()*5000, 8000, 4500 + rng.Float64()*200, 600, rng.Float64()*0.2 - 0.1, 0, 256}
		case 2: // reverse: descending deltas
			v = features.Vector{100000 + rng.Float64()*10000, 5000, 3000, 1.3, -0.95, 0, 256}
		case 3: // mixed read/write: write events present
			v = features.Vector{60000 + rng.Float64()*5000, 4000, 2500, 300, rng.Float64() * 0.3, 0.1 + rng.Float64()*0.1, 256}
		}
		// Noise.
		for j := range v {
			v[j] *= 1 + 0.02*rng.NormFloat64()
		}
		raw = append(raw, v)
		labels = append(labels, class)
	}
	return raw, labels
}

func TestTrainModelConverges(t *testing.T) {
	raw, labels := syntheticDataset(200, 1)
	norm := features.FitNormalizer(raw)
	normed := norm.ApplyAll(raw)
	net := NewModel(2)
	losses := TrainModel(net, normed, labels, TrainConfig{Epochs: 80, Seed: 2})
	if len(losses) != 80 {
		t.Fatalf("%d epochs", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss did not decrease: %g -> %g", losses[0], losses[len(losses)-1])
	}
	if acc := Evaluate(NewNNClassifier(net), normed, labels); acc < 0.95 {
		t.Errorf("train accuracy %.2f", acc)
	}
}

func TestKFoldCVHighAccuracyOnSeparableData(t *testing.T) {
	raw, labels := syntheticDataset(150, 3)
	accs := KFoldCV(raw, labels, 5, TrainConfig{Epochs: 60, Seed: 3})
	if len(accs) != 5 {
		t.Fatalf("%d folds", len(accs))
	}
	if m := Mean(accs); m < 0.9 {
		t.Errorf("CV accuracy %.2f < 0.9", m)
	}
}

func TestKFoldCVPanicsOnBadK(t *testing.T) {
	raw, labels := syntheticDataset(8, 4)
	defer func() {
		if recover() == nil {
			t.Error("k=1 must panic")
		}
	}()
	KFoldCV(raw, labels, 1, TrainConfig{})
}

func TestTreeMatchesNNOnSeparableData(t *testing.T) {
	raw, labels := syntheticDataset(200, 5)
	norm := features.FitNormalizer(raw)
	normed := norm.ApplyAll(raw)
	tree, err := TrainTree(normed, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Evaluate(tree, normed, labels); acc < 0.95 {
		t.Errorf("tree accuracy %.2f", acc)
	}
}

func TestFixedNetworkAgreesWithFloat(t *testing.T) {
	raw, labels := syntheticDataset(200, 6)
	norm := features.FitNormalizer(raw)
	normed := norm.ApplyAll(raw)
	net := NewModel(6)
	TrainModel(net, normed, labels, TrainConfig{Epochs: 60, Seed: 6})
	nnc := NewNNClassifier(net)
	fc, err := nn.CompileFixed(net)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, v := range normed {
		sel := features.Select(v)
		if nnc.Predict(sel) == fc.Predict(sel) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(normed)); frac < 0.95 {
		t.Errorf("fixed agreement %.2f", frac)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 || Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean")
	}
}

func TestDefaultPolicyShape(t *testing.T) {
	p := DefaultPolicy(blockdev.NVMe())
	if p[workload.ReadSeq.Class()] <= p[workload.ReadRandom.Class()] {
		t.Error("readseq must get more readahead than readrandom")
	}
	if p[workload.ReadRandom.Class()] != blockdev.SectorsPerPage {
		t.Error("readrandom should get the minimum")
	}
}

// fixedClassifier always predicts one class.
type fixedClassifier int

func (f fixedClassifier) Predict([]float64) int { return int(f) }

func TestTunerAppliesPolicy(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	policy := Policy{0: 1024, 1: 8, 2: 16, 3: 32}
	tuner, err := NewTuner(dev, fixedClassifier(1), features.Normalizer{}, TunerConfig{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	hook := tuner.Hook()
	// Feed one window of events, then cross the window boundary.
	tuner.MaybeTick(clk.Now()) // arms the first window
	for i := 0; i < 100; i++ {
		hook(trace.Event{Point: trace.AddToPageCache, Inode: 1, Offset: int64(i), Time: clk.Now()})
	}
	clk.Advance(1100 * time.Millisecond)
	tuner.MaybeTick(clk.Now())
	if dev.ReadaheadSectors() != 8 {
		t.Errorf("readahead = %d, want 8 (class 1 policy)", dev.ReadaheadSectors())
	}
	ds := tuner.Decisions()
	if len(ds) != 1 {
		t.Fatalf("%d decisions", len(ds))
	}
	if ds[0].Class != 1 || ds[0].Sectors != 8 || ds[0].Events != 100 {
		t.Errorf("decision %+v", ds[0])
	}
	if tuner.Collected() != 100 || tuner.Dropped() != 0 {
		t.Errorf("collected %d dropped %d", tuner.Collected(), tuner.Dropped())
	}
}

func TestTunerTicksOncePerWindow(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	tuner, err := NewTuner(dev, fixedClassifier(0), features.Normalizer{}, TunerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tuner.MaybeTick(clk.Now())
	for i := 0; i < 50; i++ {
		clk.Advance(100 * time.Millisecond) // 5 seconds total
		tuner.MaybeTick(clk.Now())
	}
	if n := len(tuner.Decisions()); n < 4 || n > 5 {
		t.Errorf("%d decisions over 5s with a 1s window", n)
	}
}

func TestTunerValidation(t *testing.T) {
	if _, err := NewTuner(nil, fixedClassifier(0), features.Normalizer{}, TunerConfig{}); err == nil {
		t.Error("nil device must error")
	}
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	if _, err := NewTuner(dev, nil, features.Normalizer{}, TunerConfig{}); err == nil {
		t.Error("nil model must error")
	}
}

func TestCollectDatasetLabelsAndCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	simCfg := sim.Config{Profile: blockdev.NVMe(), Keys: 3000, CachePages: 256, Seed: 1}
	dcfg := DatasetConfig{SecondsPerRun: 3, RASectors: []int{8, 256}}
	raw, labels, err := CollectDataset(simCfg, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 kinds × 2 ra values × (3-1) windows (warmup discarded).
	want := 4 * 2 * 2
	if len(raw) != want || len(labels) != want {
		t.Fatalf("dataset %d/%d, want %d", len(raw), len(labels), want)
	}
	seen := map[int]int{}
	for _, l := range labels {
		seen[l]++
	}
	for c := 0; c < workload.NumClasses; c++ {
		if seen[c] != want/4 {
			t.Errorf("class %d has %d windows", c, seen[c])
		}
	}
	// Feature vectors must be non-degenerate.
	for i, v := range raw {
		if v[features.FeatEventCount] == 0 {
			t.Errorf("window %d (class %d) saw no events", i, labels[i])
		}
	}
}

func TestEndToEndClassifierOnLiveWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	simCfg := sim.Config{Profile: blockdev.NVMe(), Keys: 6000, CachePages: 480, Seed: 2}
	raw, labels, err := CollectDataset(simCfg, DatasetConfig{SecondsPerRun: 10, RASectors: []int{8, 256}})
	if err != nil {
		t.Fatal(err)
	}
	norm := features.FitNormalizer(raw)
	normed := norm.ApplyAll(raw)
	net := NewModel(2)
	TrainModel(net, normed, labels, TrainConfig{Seed: 2})
	acc := Evaluate(NewNNClassifier(net), normed, labels)
	if acc < 0.85 {
		t.Errorf("live-window training accuracy %.2f < 0.85", acc)
	}
}

// TestTunerInstrumented drives an instrumented tuner over several windows
// and checks the inference histogram, per-class counters, and pipeline
// gauges all observe the decisions.
func TestTunerInstrumented(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	tuner, err := NewTuner(dev, fixedClassifier(1), features.Normalizer{}, TunerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tuner.Instrument(reg)
	hook := tuner.Hook()

	tuner.MaybeTick(clk.Now())
	const windows = 6
	for w := 0; w < windows; w++ {
		for i := 0; i < 50; i++ {
			hook(trace.Event{Point: trace.AddToPageCache, Inode: 1, Offset: int64(i), Time: clk.Now()})
		}
		clk.Advance(1100 * time.Millisecond)
		tuner.MaybeTick(clk.Now())
	}

	snap := reg.Histogram("readahead_infer_ns").Snapshot()
	if snap.Count != windows {
		t.Errorf("infer histogram count %d, want %d", snap.Count, windows)
	}
	if snap.Quantile(0.99) < 0 {
		t.Error("negative inference latency")
	}
	if got := reg.Counter("readahead_decision_class_1").Load(); got != windows {
		t.Errorf("class-1 counter %d, want %d", got, windows)
	}
	if got := reg.Counter("readahead_decision_class_0").Load(); got != 0 {
		t.Errorf("class-0 counter %d, want 0", got)
	}

	// Pipeline gauges were registered and reflect collection.
	vals := map[string]int64{}
	for _, s := range reg.Snapshot() {
		vals[s.Name] = s.Value
	}
	if vals["readahead_pipeline_collected"] != windows*50 {
		t.Errorf("collected gauge %d, want %d", vals["readahead_pipeline_collected"], windows*50)
	}
	if vals["readahead_pipeline_buffer_cap"] == 0 {
		t.Error("buffer_cap gauge missing or zero")
	}
}

// TestTunerUninstrumented: a bare tuner, with no telemetry, tracing,
// drift monitor or learner attached, still decides.
func TestTunerUninstrumented(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	tuner, err := NewTuner(dev, fixedClassifier(0), features.Normalizer{}, TunerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tuner.MaybeTick(clk.Now())
	clk.Advance(2 * time.Second)
	tuner.MaybeTick(clk.Now())
	if n := len(tuner.Decisions()); n != 1 {
		t.Errorf("uninstrumented tuner made %d decisions, want 1", n)
	}
}

// TestIdleTickAllocFree gates the call the simulation loop makes between
// every two operations: mid-window, MaybeTick is a drain (two atomic loads
// when the ring is empty) and a time compare, and allocates nothing — with
// or without events to fold into the window.
func TestIdleTickAllocFree(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	tuner, err := NewTuner(dev, fixedClassifier(0), features.Normalizer{}, TunerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ev := trace.Event{Point: trace.AddToPageCache, Inode: 1}
	hook := tuner.Hook()
	tick := func() { tuner.MaybeTick(clk.Now()) }
	tick() // arms the first window
	if a := testing.AllocsPerRun(1000, tick); a != 0 {
		t.Errorf("idle MaybeTick allocates %.1f/run, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		ev.Offset++
		hook(ev)
		tick()
	}); a != 0 {
		t.Errorf("collect + MaybeTick allocates %.1f/run, want 0", a)
	}
	if n := len(tuner.Decisions()); n != 0 {
		t.Errorf("%d decisions mid-window", n)
	}
}
