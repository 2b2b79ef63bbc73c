package bench

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/features"
	"repro/internal/mserve"
	"repro/internal/parallel"
	"repro/internal/readahead"
	"repro/internal/workload"
)

// These are the satellite determinism regression tests: every experiment
// grid must render byte-identical output at workers=1 (inline, no
// goroutines) and workers=8. They run under -race in CI, which also makes
// them the data-race canary for the worker pool and the per-cell
// instances that share one artifact's parsed model.

func TestParallelFor(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		got := make([]int, 40)
		if err := parallel.For(len(got), workers, func(i int) error {
			got[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d cell %d = %d", workers, i, v)
			}
		}
	}
	if parallel.Workers(0) < 1 || parallel.Workers(5) != 5 {
		t.Error("Workers resolution")
	}
}

func TestParallelForReportsLowestError(t *testing.T) {
	fail := func(i int) error {
		if i == 3 || i == 7 {
			return &cellErr{i}
		}
		return nil
	}
	for _, workers := range []int{1, 4} {
		err := parallel.For(10, workers, fail)
		ce, ok := err.(*cellErr)
		if !ok || ce.i != 3 {
			t.Fatalf("workers=%d: err = %v, want cell 3", workers, err)
		}
	}
}

type cellErr struct{ i int }

func (e *cellErr) Error() string { return "cell failed" }

func TestSweepParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	kinds := []workload.Kind{workload.ReadRandom, workload.ReadSeq}
	ras := []int{8, 256, 1024}
	serial, err := RunSweepParallel(microSSD(), kinds, ras, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSweepParallel(microSSD(), kinds, ras, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	serial.Write(&a)
	par.Write(&b)
	if a.String() != b.String() {
		t.Errorf("sweep output differs between workers=1 and workers=8:\n--- serial\n%s--- parallel\n%s", a.String(), b.String())
	}
}

func TestTable2ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Both models read the raw window features (an identity normalizer).
	// An untrained network still predicts deterministically, and its
	// forward scratch exercises the per-cell Instance. The tree, which
	// every cell shares parsed, splits on the Δ-offset sign: scans keep a
	// large readahead, random reads get the minimum. Its cells run two
	// virtual seconds, so the decision made at the first window boundary
	// sets the readahead of the second and reaches the printed ratios.
	var identity features.Normalizer
	for i := range identity.Z {
		identity.Z[i].StdDev = 1
	}
	net, err := newBundle(mserve.KindNN, "untrained-nn", readahead.NewModel(1).Save, identity)
	if err != nil {
		t.Fatal(err)
	}
	var windows []features.Vector
	var classes []int
	for i := 0; i < 30; i++ {
		var v features.Vector
		v[features.FeatDeltaSign] = float64(i%3 - 1)
		windows = append(windows, v)
		classes = append(classes, []int{2, 1, 0}[i%3]) // reverse, random, sequential
	}
	tree, err := readahead.TrainTree(windows, classes)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := newBundle(mserve.KindDTree, "sign-dtree", tree.Save, identity)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		b       Bundle
		seconds int
	}{{net, 1}, {dt, 2}} {
		b := c.b
		serial, err := RunTable2Parallel(microNVMe(), microSSD(), c.seconds, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		par, err := RunTable2Parallel(microNVMe(), microSSD(), c.seconds, b, 8)
		if err != nil {
			t.Fatal(err)
		}
		var sa, sb strings.Builder
		serial.Write(&sa)
		par.Write(&sb)
		if sa.String() != sb.String() {
			t.Errorf("%s: table2 output differs between workers=1 and workers=8:\n--- serial\n%s--- parallel\n%s",
				b.Artifact.Version.Name, sa.String(), sb.String())
		}
	}
}

func TestKFoldParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	// Synthetic separable dataset: four class blobs in feature space.
	rng := rand.New(rand.NewSource(5))
	n := 80
	raw := make([]features.Vector, n)
	labels := make([]int, n)
	for i := range raw {
		c := i % workload.NumClasses
		labels[i] = c
		for j := 0; j < features.NumCandidates; j++ {
			raw[i][j] = float64(c) + 0.3*rng.NormFloat64()
		}
	}
	cfg := readahead.TrainConfig{Epochs: 3, Batch: 8, Seed: 9}
	serial := readahead.KFoldCVParallel(raw, labels, 5, cfg, 1)
	par := readahead.KFoldCVParallel(raw, labels, 5, cfg, 8)
	if len(serial) != 5 || len(par) != 5 {
		t.Fatalf("fold counts %d/%d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Errorf("fold %d accuracy differs: workers=1 %v vs workers=8 %v", i, serial[i], par[i])
		}
	}
}
