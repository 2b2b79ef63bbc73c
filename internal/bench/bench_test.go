package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/dtree"
	"repro/internal/features"
	"repro/internal/mserve"
	"repro/internal/nn"
	"repro/internal/readahead"
	"repro/internal/sim"
	"repro/internal/workload"
)

// microNVMe and microSSD are tiny environments that keep the pollution
// regime (dataset > cache) while running in well under a second per
// simulated second.
func microNVMe() sim.Config {
	return sim.Config{Profile: blockdev.NVMe(), Keys: 4000, CachePages: 320, Seed: 1}
}

func microSSD() sim.Config {
	return sim.Config{Profile: blockdev.SATASSD(), Keys: 4000, CachePages: 320, Seed: 1}
}

func TestRunFixedRADeterministic(t *testing.T) {
	a, err := RunFixedRA(microNVMe(), workload.ReadRandom, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFixedRA(microNVMe(), workload.ReadRandom, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != b.Ops || a.Duration != b.Duration {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
	if a.RASectors != 64 || a.Device != "NVMe" || a.Workload != workload.ReadRandom {
		t.Errorf("metadata: %+v", a)
	}
	if a.OpsPerSec() <= 0 {
		t.Error("throughput")
	}
}

func TestRunVanillaUsesDefaultRA(t *testing.T) {
	r, err := RunVanilla(microNVMe(), workload.ReadRandom, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.RASectors != blockdev.DefaultReadaheadSectors {
		t.Errorf("vanilla ra = %d", r.RASectors)
	}
}

func TestTunedBeatsVanillaOnRandomSSD(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// The core claim of the paper, at micro scale: tuning readahead down
	// for random access must win clearly on the SATA SSD.
	base, err := RunVanilla(microSSD(), workload.ReadRandom, 3)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := RunFixedRA(microSSD(), workload.ReadRandom, 3, blockdev.SectorsPerPage)
	if err != nil {
		t.Fatal(err)
	}
	ratio := tuned.OpsPerSec() / base.OpsPerSec()
	if ratio < 1.4 {
		t.Errorf("tuned/vanilla = %.2f; expected a clear win", ratio)
	}
	// And the device must have fetched far fewer speculative pages.
	if tuned.SpecPages*4 > base.SpecPages {
		t.Errorf("spec pages: tuned %d vs vanilla %d", tuned.SpecPages, base.SpecPages)
	}
}

func TestReadSeqInsensitiveToTuning(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	base, err := RunVanilla(microNVMe(), workload.ReadSeq, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 512 sectors (64 pages) is the largest window that stays well under
	// the micro cache (320 pages); beyond that, readahead thrashes the
	// cache itself — a real effect, but not the one under test here.
	tuned, err := RunFixedRA(microNVMe(), workload.ReadSeq, 2, 512)
	if err != nil {
		t.Fatal(err)
	}
	ratio := tuned.OpsPerSec() / base.OpsPerSec()
	if ratio < 0.9 || ratio > 1.15 {
		t.Errorf("readseq ratio %.2f; should be ~1.0", ratio)
	}
}

// constBundle is a KindDTree artifact whose one leaf always answers class.
func constBundle(t *testing.T, class int) Bundle {
	t.Helper()
	x := [][]float64{make([]float64, features.Count), make([]float64, features.Count)}
	x[1][0] = 1
	tree, err := dtree.Train(x, []int{class, class}, workload.NumClasses, dtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBundle(mserve.KindDTree, "const", tree.Save, features.Normalizer{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunKMLRecordsDecisions(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	b := constBundle(t, 1) // always "readrandom"
	res, decs, err := RunKML(microSSD(), workload.ReadRandom, 3, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) < 2 {
		t.Fatalf("%d decisions over 3s", len(decs))
	}
	for _, d := range decs {
		if d.Class != 1 || d.Sectors != 8 {
			t.Errorf("decision %+v", d)
		}
	}
	if res.RASectors != -1 {
		t.Error("KML runs report RASectors=-1")
	}
	// The stub picks the right class, so it should approach the tuned run.
	base, err := RunVanilla(microSSD(), workload.ReadRandom, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsPerSec() < base.OpsPerSec() {
		t.Errorf("KML (%.0f) below vanilla (%.0f)", res.OpsPerSec(), base.OpsPerSec())
	}
}

func TestRunSweepFindsSmallRAForRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res, err := RunSweepParallel(microSSD(), []workload.Kind{workload.ReadRandom}, []int{8, 256, 1024}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0] != 8 {
		t.Errorf("best ra for readrandom = %d, want 8", res.Best[0])
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "readrandom") {
		t.Error("sweep table output")
	}
	p := res.Policy()
	if p[workload.ReadRandom.Class()] != 8 {
		t.Errorf("policy %v", p)
	}
}

func TestRunFigure2Timeline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	b := constBundle(t, 1)
	res, err := RunFigure2(microNVMe(), 3, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		if p.VanillaOps <= 0 || p.KMLOps <= 0 {
			t.Errorf("empty second: %+v", p)
		}
	}
	if res.Speedup <= 0 {
		t.Error("speedup")
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "mixgraph timeline") {
		t.Error("figure output")
	}
}

func TestTrainNNBundleEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := microNVMe()
	cfg.Keys, cfg.CachePages = 6000, 480
	bundle, raw, labels, err := TrainNNBundle(cfg,
		readahead.DatasetConfig{SecondsPerRun: 8, RASectors: []int{8, 256}},
		readahead.TrainConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(labels) || len(raw) == 0 {
		t.Fatalf("dataset %d/%d", len(raw), len(labels))
	}
	if v := bundle.Artifact.Version; v.Kind != mserve.KindNN || v.Name != "readahead-nn" {
		t.Errorf("nn bundle artifact %+v", v)
	}
	inst, err := bundle.Artifact.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	// The served float32 kernel the experiments decide with must give the
	// float64 graph's class on every collected window (the bound
	// mserve's TestServedPrecisionAgreesWithFloat64 holds), and classify
	// its own training windows well.
	net, err := nn.Load(bytes.NewReader(bundle.Artifact.Data))
	if err != nil {
		t.Fatal(err)
	}
	graph := readahead.NewNNClassifier(net)
	correct, disagree := 0, 0
	for i, v := range raw {
		sel := features.Select(bundle.Norm.Apply(v))
		class := inst.Predict(sel)
		if class != graph.Predict(sel) {
			disagree++
		}
		if class == labels[i] {
			correct++
		}
	}
	if disagree != 0 {
		t.Errorf("served float32 and float64 graph disagree on %d of %d windows, want 0", disagree, len(raw))
	}
	if acc := float64(correct) / float64(len(raw)); acc < 0.85 {
		t.Errorf("bundle training accuracy %.2f", acc)
	}
	// The tree bundle trains on the same dataset.
	tb, err := TrainTreeBundle(raw, labels)
	if err != nil {
		t.Fatal(err)
	}
	if v := tb.Artifact.Version; v.Kind != mserve.KindDTree || v.Name != "readahead-dtree" {
		t.Errorf("tree bundle artifact %+v", v)
	}
	if _, err := tb.Artifact.Instantiate(); err != nil {
		t.Fatal(err)
	}
}

func TestHelpers(t *testing.T) {
	if len(SweepRAValues()) != 20 {
		t.Errorf("sweep values: %d, want 20 (paper)", len(SweepRAValues()))
	}
	vals := SweepRAValues()
	if vals[0] != 8 || vals[len(vals)-1] != 1024 {
		t.Error("sweep range must span 8..1024")
	}
	if Median(nil) != 0 || Median([]float64{3, 1, 2}) != 2 || Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("Median")
	}
	q := QuickConfig(DefaultNVMeConfig(1))
	full := DefaultNVMeConfig(1).WithDefaults()
	if q.Keys*8 != full.Keys || q.CachePages*8 != full.CachePages {
		t.Error("QuickConfig scaling")
	}
	if DefaultSSDConfig(1).Profile.Name != "SSD" {
		t.Error("SSD config")
	}
}

func TestTable2ResultWrite(t *testing.T) {
	res := &Table2Result{
		ModelName:    "readahead-nn",
		Rows:         []Table2Row{{Workload: workload.ReadSeq, NVMe: 0.96, SSD: 1.02}},
		MeanGainNVMe: 37.3,
		MeanGainSSD:  82.5,
	}
	var sb strings.Builder
	res.Write(&sb)
	out := sb.String()
	for _, want := range []string{"readseq", "0.96x", "1.02x", "37.3%", "82.5%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
