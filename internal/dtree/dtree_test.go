package dtree

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func blobs(rng *rand.Rand, n int) ([][]float64, []int) {
	centers := [][2]float64{{0, 0}, {4, 4}, {-4, 4}}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(3)
		y[i] = c
		x[i] = []float64{centers[c][0] + rng.NormFloat64(), centers[c][1] + rng.NormFloat64()}
	}
	return x, y
}

func TestTrainSimpleSplit(t *testing.T) {
	// One feature, perfectly separable at 0.5.
	x := [][]float64{{0}, {0.1}, {0.2}, {0.9}, {1.0}, {1.1}}
	y := []int{0, 0, 0, 1, 1, 1}
	tr, err := Train(x, y, 2, Options{MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range x {
		if tr.Predict(row) != y[i] {
			t.Errorf("sample %d misclassified", i)
		}
	}
	if tr.Depth() != 1 {
		t.Errorf("depth = %d, want 1 (single split)", tr.Depth())
	}
}

func TestTrainBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trainX, trainY := blobs(rng, 400)
	testX, testY := blobs(rng, 200)
	tr, err := Train(trainX, trainY, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, row := range testX {
		if tr.Predict(row) == testY[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(testX)); acc < 0.9 {
		t.Errorf("blob accuracy %.3f < 0.9", acc)
	}
}

func TestPredictProbsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := blobs(rng, 200)
	tr, err := Train(x, y, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		probs := tr.leafFor(x[i]).probs
		sum := 0.0
		best, bestP := 0, -1.0
		for c, p := range probs {
			sum += p
			if p > bestP {
				best, bestP = c, p
			}
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("probs sum %g", sum)
		}
		if best != tr.Predict(x[i]) {
			t.Fatal("Predict must be argmax of the leaf distribution")
		}
	}
}

func TestMaxDepthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := blobs(rng, 500)
	tr, err := Train(x, y, 3, Options{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() > 2 {
		t.Errorf("depth %d exceeds MaxDepth 2", tr.Depth())
	}
}

func TestMinLeafRespected(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []int{0, 0, 1, 1}
	tr, err := Train(x, y, 2, Options{MinLeaf: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With MinLeaf 3 and 4 samples, no split is legal: a single leaf.
	if tr.Nodes() != 1 {
		t.Errorf("nodes = %d, want 1 (leaf only)", tr.Nodes())
	}
}

func TestPureNodeStopsEarly(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	y := []int{1, 1, 1}
	tr, err := Train(x, y, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes() != 1 || tr.Predict([]float64{5}) != 1 {
		t.Error("pure training set should yield a single leaf")
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, 2, Options{}); err == nil {
		t.Error("empty training set must error")
	}
	if _, err := Train([][]float64{{1}}, []int{0, 1}, 2, Options{}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := Train([][]float64{{1}}, []int{0}, 1, Options{}); err == nil {
		t.Error("single class must error")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []int{0, 1}, 2, Options{}); err == nil {
		t.Error("ragged features must error")
	}
	if _, err := Train([][]float64{{1}}, []int{5}, 2, Options{}); err == nil {
		t.Error("out-of-range label must error")
	}
}

func TestPredictValidation(t *testing.T) {
	tr, err := Train([][]float64{{0}, {1}}, []int{0, 1}, 2, Options{MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong feature count must panic")
		}
	}()
	tr.Predict([]float64{1, 2})
}

func TestConstantFeaturesYieldLeaf(t *testing.T) {
	// All feature values identical: no split possible, majority leaf.
	x := [][]float64{{7}, {7}, {7}, {7}}
	y := []int{0, 1, 1, 1}
	tr, err := Train(x, y, 2, Options{MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes() != 1 || tr.Predict([]float64{7}) != 1 {
		t.Error("constant features should produce a majority leaf")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := blobs(rng, 300)
	tr, err := Train(x, y, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Features() != tr.Features() || loaded.Classes() != tr.Classes() || loaded.Nodes() != tr.Nodes() {
		t.Fatal("metadata mismatch")
	}
	for i := 0; i < 100; i++ {
		if loaded.Predict(x[i]) != tr.Predict(x[i]) {
			t.Fatalf("prediction mismatch on sample %d", i)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := blobs(rng, 100)
	tr, err := Train(x, y, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x01
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, ErrBadTree) {
		t.Errorf("corruption: got %v", err)
	}
	if _, err := Load(bytes.NewReader(data[:8])); !errors.Is(err, ErrBadTree) {
		t.Errorf("truncation: got %v", err)
	}
	if _, err := Load(bytes.NewReader([]byte("XXXX"))); !errors.Is(err, ErrBadTree) {
		t.Errorf("bad magic: got %v", err)
	}
}

func TestDeterministicTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := blobs(rng, 200)
	a, err := Train(x, y, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(x, y, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := a.Save(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("training must be deterministic for identical inputs")
	}
}

func BenchmarkPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x, y := blobs(rng, 500)
	tr, err := Train(x, y, 3, Options{})
	if err != nil {
		b.Fatal(err)
	}
	probe := x[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Predict(probe)
	}
}

func BenchmarkTrain500(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x, y := blobs(rng, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, 3, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
