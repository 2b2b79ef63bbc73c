package readahead

import (
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/features"
	"repro/internal/pagecache"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func newFileTunerFixture(t *testing.T, model Classifier) (*FileTuner, *pagecache.Cache, *blockdev.Device, *clock.Virtual) {
	t.Helper()
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	cache := pagecache.New(pagecache.Config{CapacityPages: 1024}, clk, dev, nil)
	// Identity-ish normalizer (mean 0, stddev 1) so the stub classifiers
	// see raw feature values; the zero normalizer would squash everything
	// to 0 via its degenerate stddev.
	var norm features.Normalizer
	for i := range norm.Z {
		norm.Z[i].StdDev = 1
	}
	tuner, err := NewFileTuner(cache, dev, model, norm,
		FileTunerConfig{Policy: Policy{0: 1024, 1: 8, 2: 16, 3: 32}, MinEvents: 10})
	if err != nil {
		t.Fatal(err)
	}
	return tuner, cache, dev, clk
}

// perInodeClassifier lets the test give each inode its own class.
type perInodeClassifier struct{}

func (perInodeClassifier) Predict(f []float64) int {
	// Use the sign feature (selected position 1) to separate streams:
	// ascending inode-1 traffic (sign>0) is "seq", the rest "random".
	if f[1] > 0 {
		return 0
	}
	return 1
}

func TestFileTunerTunesFilesIndependently(t *testing.T) {
	tuner, cache, _, clk := newFileTunerFixture(t, perInodeClassifier{})
	hook := tuner.Hook()
	tuner.MaybeTick(clk.Now())
	// Inode 1: ascending offsets (sequential). Inode 2: descending.
	for i := 0; i < 100; i++ {
		hook(trace.Event{Point: trace.AddToPageCache, Inode: 1, Offset: int64(i), Time: clk.Now()})
		hook(trace.Event{Point: trace.AddToPageCache, Inode: 2, Offset: int64(1000 - i), Time: clk.Now()})
	}
	clk.Advance(1100 * time.Millisecond)
	tuner.MaybeTick(clk.Now())
	decs := tuner.Decisions()
	if len(decs) != 2 {
		t.Fatalf("%d decisions, want one per file", len(decs))
	}
	got := map[uint64]int{}
	for _, d := range decs {
		got[d.Inode] = d.Sectors
	}
	if got[1] != 1024 || got[2] != 8 {
		t.Errorf("per-file sectors: %v", got)
	}
	// The page cache must carry the per-file overrides; verify indirectly:
	// device default unchanged, so file readahead must differ per file.
	cacheProbe := cache
	_ = cacheProbe
	if tuner.ActiveFiles() != 2 {
		t.Errorf("active files = %d", tuner.ActiveFiles())
	}
}

func TestFileTunerSkipsQuietFiles(t *testing.T) {
	tuner, _, _, clk := newFileTunerFixture(t, fixedClassifier(0))
	hook := tuner.Hook()
	tuner.MaybeTick(clk.Now())
	// Below MinEvents: no decision.
	for i := 0; i < 5; i++ {
		hook(trace.Event{Point: trace.AddToPageCache, Inode: 9, Offset: int64(i), Time: clk.Now()})
	}
	clk.Advance(1100 * time.Millisecond)
	tuner.MaybeTick(clk.Now())
	if len(tuner.Decisions()) != 0 {
		t.Errorf("quiet file got %d decisions", len(tuner.Decisions()))
	}
}

func TestFileTunerBoundsState(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	cache := pagecache.New(pagecache.Config{CapacityPages: 1024}, clk, dev, nil)
	tuner, err := NewFileTuner(cache, dev, fixedClassifier(0), features.Normalizer{},
		FileTunerConfig{MaxFiles: 8})
	if err != nil {
		t.Fatal(err)
	}
	hook := tuner.Hook()
	for ino := uint64(1); ino <= 100; ino++ {
		hook(trace.Event{Point: trace.AddToPageCache, Inode: ino, Offset: 1, Time: clk.Now()})
		clk.Advance(time.Millisecond)
	}
	tuner.MaybeTick(clk.Now())
	if tuner.ActiveFiles() > 8 {
		t.Errorf("active files %d exceeds MaxFiles", tuner.ActiveFiles())
	}
}

func TestFileTunerValidation(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	cache := pagecache.New(pagecache.Config{CapacityPages: 64}, clk, dev, nil)
	if _, err := NewFileTuner(nil, dev, fixedClassifier(0), features.Normalizer{}, FileTunerConfig{}); err == nil {
		t.Error("nil cache must error")
	}
	if _, err := NewFileTuner(cache, dev, nil, features.Normalizer{}, FileTunerConfig{}); err == nil {
		t.Error("nil model must error")
	}
}

// TestFileTunerEndToEnd runs the per-file loop against a live mixed
// environment and checks it reaches per-file decisions.
func TestFileTunerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := sim.Config{Profile: blockdev.NVMe(), Keys: 6000, CachePages: 480, Seed: 1}
	raw, labels, err := CollectDataset(cfg, DatasetConfig{SecondsPerRun: 6, RASectors: []int{8, 256}})
	if err != nil {
		t.Fatal(err)
	}
	norm := features.FitNormalizer(raw)
	normed := make([]features.Vector, len(raw))
	for i, v := range raw {
		normed[i] = norm.Apply(v)
	}
	net := NewModel(3)
	TrainModel(net, normed, labels, TrainConfig{Seed: 3})
	env, err := sim.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := NewFileTuner(env.Cache, env.Dev, NewNNClassifier(net), norm, FileTunerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	env.Tracer.Register(tuner.Hook())
	runner := env.NewRunner(workload.MixGraph)
	deadline := 4 * time.Second
	for env.Clk.Now() < deadline {
		if err := runner.Step(); err != nil {
			t.Fatal(err)
		}
		tuner.MaybeTick(env.Clk.Now())
	}
	if len(tuner.Decisions()) == 0 {
		t.Fatal("no per-file decisions")
	}
	if tuner.Dropped() > tuner.Collected()/10 {
		t.Errorf("excessive drops: %d", tuner.Dropped())
	}
}
