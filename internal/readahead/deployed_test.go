package readahead

import (
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/features"
	"repro/internal/mserve"
	"repro/internal/nn"
	"repro/internal/trace"
)

// deployedModel returns the tuner's deployed classifier, or nil before the
// first swap.
func deployedModel(t *Tuner) Classifier {
	if snap := t.deploy.Load(); snap != nil {
		return snap.Model
	}
	return nil
}

// TestDeployedTunerHotSwap drives a tuner through deployment-handle
// swaps: an empty handle leaves the device alone, each swap takes
// effect at the next decision window, and decisions record the model
// version that made them.
func TestDeployedTunerHotSwap(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	policy := Policy{0: 1024, 1: 8, 2: 16, 3: 32}
	var deploy mserve.Deployment[Classifier]
	tuner, err := NewDeployedTuner(dev, &deploy, features.Normalizer{}, TunerConfig{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	if deployedModel(tuner) != nil {
		t.Fatal("deployed model non-nil before first swap")
	}

	tick := func() {
		hook := tuner.Hook()
		for i := 0; i < 20; i++ {
			hook(trace.Event{Point: trace.AddToPageCache, Inode: 1, Offset: int64(i), Time: clk.Now()})
		}
		clk.Advance(1100 * time.Millisecond)
		tuner.MaybeTick(clk.Now())
	}

	// Empty deployment: the window passes without a decision and the
	// device's readahead stays where it was.
	before := dev.ReadaheadSectors()
	tuner.MaybeTick(clk.Now()) // arms the first window
	tick()
	if n := len(tuner.Decisions()); n != 0 {
		t.Fatalf("%d decisions with an empty deployment", n)
	}
	if dev.ReadaheadSectors() != before {
		t.Fatal("empty deployment moved the readahead setting")
	}

	// First deploy: class-1 model, version 1.
	deploy.Swap(fixedClassifier(1), 1)
	tick()
	// Hot swap: class-2 model, version 2, picked up at the next window.
	deploy.Swap(fixedClassifier(2), 2)
	tick()
	// Rollback re-publishes the old model under its version.
	deploy.Swap(fixedClassifier(1), 1)
	tick()

	ds := tuner.Decisions()
	if len(ds) != 3 {
		t.Fatalf("%d decisions, want 3", len(ds))
	}
	want := []struct {
		class   int
		sectors int
		version uint64
	}{{1, 8, 1}, {2, 16, 2}, {1, 8, 1}}
	for i, w := range want {
		if ds[i].Class != w.class || ds[i].Sectors != w.sectors || ds[i].Version != w.version {
			t.Errorf("decision %d: %+v, want class=%d sectors=%d version=%d", i, ds[i], w.class, w.sectors, w.version)
		}
	}
	if dev.ReadaheadSectors() != 8 {
		t.Errorf("final readahead = %d, want 8", dev.ReadaheadSectors())
	}
	if m := deployedModel(tuner); m != Classifier(fixedClassifier(1)) {
		t.Errorf("deployed model after swaps: %v", m)
	}
}

// TestDeployedTunerFixedPointModel swaps the fixed-point inference path
// (the kernel-space representation) into a live tuner: the integer-only
// classifier must serve decision windows like any other model.
func TestDeployedTunerFixedPointModel(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	fixed, err := nn.CompileFixed(NewModel(11))
	if err != nil {
		t.Fatal(err)
	}
	var deploy mserve.Deployment[Classifier]
	deploy.Swap(fixed, 7)
	tuner, err := NewDeployedTuner(dev, &deploy, features.Normalizer{}, TunerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tuner.MaybeTick(clk.Now())
	hook := tuner.Hook()
	for i := 0; i < 50; i++ {
		hook(trace.Event{Point: trace.AddToPageCache, Inode: 2, Offset: int64(i), Time: clk.Now()})
	}
	clk.Advance(1100 * time.Millisecond)
	tuner.MaybeTick(clk.Now())

	ds := tuner.Decisions()
	if len(ds) != 1 {
		t.Fatalf("%d decisions", len(ds))
	}
	if ds[0].Version != 7 {
		t.Errorf("decision version = %d, want 7", ds[0].Version)
	}
	if ds[0].Class < 0 || ds[0].Class >= 4 {
		t.Errorf("fixed-point class out of range: %d", ds[0].Class)
	}
	if deployedModel(tuner) != Classifier(fixed) {
		t.Error("deployed model is not the deployed fixed-point classifier")
	}

	if _, err := NewDeployedTuner(dev, nil, features.Normalizer{}, TunerConfig{}); err == nil {
		t.Error("nil deployment must error")
	}
}
