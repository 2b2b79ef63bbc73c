package bench

import (
	"strings"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/features"
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

// stubClassifier always answers the same class.
type stubClassifier int

func (s stubClassifier) Predict([]float64) int { return int(s) }
func (s stubClassifier) Name() string          { return "stub" }

func TestRunKMLRecordsDecisions(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	b := Bundle{Model: stubClassifier(1)} // always "readrandom"
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
	b := Bundle{Model: stubClassifier(1)}
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
	// The bundle must classify its own training windows well.
	correct := 0
	for i, v := range raw {
		if bundle.Model.Predict(features.Select(bundle.Norm.Apply(v))) == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(raw)); acc < 0.85 {
		t.Errorf("bundle training accuracy %.2f", acc)
	}
	// The tree bundle trains on the same dataset.
	tb, err := TrainTreeBundle(raw, labels)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Model.Name() != "readahead-dtree" {
		t.Error("tree bundle name")
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
