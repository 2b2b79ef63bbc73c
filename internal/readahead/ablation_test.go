package readahead

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/workload"
)

// maskedClassifier zeroes a set of selected-feature positions before
// delegating, emulating a model trained without those inputs.
type maskedClassifier struct {
	inner *NNClassifier
	mask  []int // positions in the selected vector to zero
	buf   []float64
}

func (m *maskedClassifier) Predict(f []float64) int {
	copy(m.buf, f)
	for _, i := range m.mask {
		m.buf[i] = 0
	}
	return m.inner.Predict(m.buf)
}

// trainMasked trains a model with some selected features zeroed out in
// every sample (equivalent to removing them, since a constant-zero input
// contributes nothing the bias cannot).
func trainMasked(raw []features.Vector, labels []int, mask []int, seed int64) (*maskedClassifier, features.Normalizer) {
	norm := features.FitNormalizer(raw)
	normed := make([]features.Vector, len(raw))
	for i, v := range raw {
		nv := norm.Apply(v)
		for _, sel := range mask {
			nv[features.Selected[sel]] = 0
		}
		normed[i] = nv
	}
	net := NewModel(seed)
	TrainModel(net, normed, labels, TrainConfig{Seed: seed})
	return &maskedClassifier{
		inner: NewNNClassifier(net),
		mask:  mask,
		buf:   make([]float64, features.Count),
	}, norm
}

func evalMasked(c *maskedClassifier, norm features.Normalizer, raw []features.Vector, labels []int) float64 {
	correct := 0
	buf := make([]float64, features.Count)
	for i, v := range raw {
		features.SelectInto(buf, norm.Apply(v))
		if c.Predict(buf) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(raw))
}

// TestFeatureAblation verifies the feature-selection claims in DESIGN.md:
// the full selected set separates the training workloads, while removing
// the direction (sign) feature must cost accuracy — it is what separates
// readseq from readreverse.
func TestFeatureAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	simCfg := sim.Config{Profile: blockdev.NVMe(), Keys: 6000, CachePages: 480, Seed: 5}
	raw, labels, err := CollectDataset(simCfg, DatasetConfig{SecondsPerRun: 8, RASectors: []int{8, 256}})
	if err != nil {
		t.Fatal(err)
	}

	// Positions within the selected vector: 0=|Δ|, 1=sign, 2=writeFrac, 3=ra.
	full, fullNorm := trainMasked(raw, labels, nil, 5)
	fullAcc := evalMasked(full, fullNorm, raw, labels)
	if fullAcc < 0.9 {
		t.Fatalf("full feature set accuracy %.2f", fullAcc)
	}

	noSign, nsNorm := trainMasked(raw, labels, []int{1}, 5)
	noSignAcc := evalMasked(noSign, nsNorm, raw, labels)
	if noSignAcc >= fullAcc {
		t.Errorf("removing the direction feature should cost accuracy: %.2f vs %.2f", noSignAcc, fullAcc)
	}
	// Without direction, readseq and readreverse must collide: per-class
	// accuracy over those two classes cannot stay high.
	collide := 0
	total := 0
	buf := make([]float64, features.Count)
	for i, v := range raw {
		if labels[i] != workload.ReadSeq.Class() && labels[i] != workload.ReadReverse.Class() {
			continue
		}
		total++
		features.SelectInto(buf, nsNorm.Apply(v))
		if noSign.Predict(buf) == labels[i] {
			collide++
		}
	}
	if total > 0 && float64(collide)/float64(total) > 0.8 {
		t.Errorf("seq/reverse still separated without the sign feature (%.2f)", float64(collide)/float64(total))
	}
}

// TestQuantizedAccuracy (E7) verifies the §3.1 trade-off discussion: the
// Q16.16 model loses little accuracy relative to the float model.
func TestQuantizedAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	simCfg := sim.Config{Profile: blockdev.NVMe(), Keys: 6000, CachePages: 480, Seed: 6}
	raw, labels, err := CollectDataset(simCfg, DatasetConfig{SecondsPerRun: 6, RASectors: []int{8, 256}})
	if err != nil {
		t.Fatal(err)
	}
	norm := features.FitNormalizer(raw)
	normed := norm.ApplyAll(raw)
	net := NewModel(6)
	TrainModel(net, normed, labels, TrainConfig{Seed: 6})
	floatAcc := Evaluate(NewNNClassifier(net), normed, labels)
	fixed, err := nn.CompileFixed(net)
	if err != nil {
		t.Fatal(err)
	}
	fixedAcc := Evaluate(fixed, normed, labels)
	if floatAcc-fixedAcc > 0.05 {
		t.Errorf("quantization cost too high: float %.3f vs fixed %.3f", floatAcc, fixedAcc)
	}
}

// TestSavedModelDeploysIdentically covers the full §3.3 deployment path:
// train → save network + normalizer → load → predictions identical.
func TestSavedModelDeploysIdentically(t *testing.T) {
	raw, labels := syntheticDataset(120, 9)
	norm := features.FitNormalizer(raw)
	normed := norm.ApplyAll(raw)
	net := NewModel(9)
	TrainModel(net, normed, labels, TrainConfig{Epochs: 40, Seed: 9})

	dir := t.TempDir()
	if err := net.SaveFile(dir + "/m.kml"); err != nil {
		t.Fatal(err)
	}
	loaded, err := nn.LoadFile(dir + "/m.kml")
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewNNClassifier(net), NewNNClassifier(loaded)
	for _, v := range normed {
		sel := features.Select(v)
		if a.Predict(sel) != b.Predict(sel) {
			t.Fatal("deployed model diverges from trained model")
		}
	}
}
