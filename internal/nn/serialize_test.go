package nn

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/matrix"
)

func testNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return NewNetwork(
		NewLinear(5, 15, rng), NewSigmoid(),
		NewLinear(15, 15, rng), NewSigmoid(),
		NewLinear(15, 4, rng), NewSoftmax(),
	)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net := testNet(1)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.String() != net.String() {
		t.Fatalf("architecture mismatch: %q vs %q", loaded.String(), net.String())
	}
	// Identical outputs on a probe batch.
	in := fromSlice(2, 5, []float64{1, -1, 0.5, 2, -0.3, 0, 0, 1, 1, 0})
	a, b := net.Forward(in), loaded.Forward(in)
	if !sameMat(a, b) {
		t.Error("loaded model output differs")
	}
}

func TestSaveLoadFile(t *testing.T) {
	net := testNet(2)
	path := filepath.Join(t.TempDir(), "model.kml")
	if err := net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	in := matrix.New[float64](1, 5)
	if !sameMat(net.Forward(in), loaded.Forward(in)) {
		t.Error("file round trip mismatch")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	_, err := Load(bytes.NewReader([]byte("NOPE....")))
	if !errors.Is(err, ErrBadModel) {
		t.Errorf("want ErrBadModel, got %v", err)
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	net := testNet(3)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{3, 7, 10, len(full) / 2, len(full) - 2} {
		if _, err := Load(bytes.NewReader(full[:cut])); !errors.Is(err, ErrBadModel) {
			t.Errorf("truncation at %d: want ErrBadModel, got %v", cut, err)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	net := testNet(4)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0xFF // flip a weight byte
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrBadModel) {
		t.Errorf("corruption: want ErrBadModel (checksum), got %v", err)
	}
}

func TestLoadRejectsBadVersion(t *testing.T) {
	net := testNet(5)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version low byte
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrBadModel) {
		t.Errorf("bad version: want ErrBadModel, got %v", err)
	}
}

func TestLoadedModelIsTrainable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork(NewLinear(2, 8, rng), NewTanh(), NewLinear(8, 2, rng))
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := fromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	labels := []int{0, 1, 1, 0}
	loss := NewCrossEntropy()
	opt := NewSGD(0.5, 0.9)
	var lv float64
	for i := 0; i < 2000; i++ {
		lv = loaded.TrainBatch(in, ClassTarget(labels), loss, opt)
	}
	if lv > 0.05 {
		t.Errorf("loaded model failed to train: loss %g", lv)
	}
}

func TestCompileFixedMatchesFloatArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Train a small real model first so weights are meaningful.
	net := NewNetwork(NewLinear(2, 8, rng), NewSigmoid(), NewLinear(8, 3, rng))
	trainX, trainY := blobs(rng, 200)
	loss := NewCrossEntropy()
	opt := NewSGD(0.1, 0.9)
	for i := 0; i < 300; i++ {
		net.TrainBatch(trainX, ClassTarget(trainY), loss, opt)
	}
	fnet, err := CompileFixed(net)
	if err != nil {
		t.Fatal(err)
	}
	testX, _ := blobs(rng, 300)
	var buf PredictBuffer
	agree := 0
	for i := 0; i < testX.Rows(); i++ {
		f := testX.Row(i)
		if net.Predict(f, &buf) == fnet.Predict(f) {
			agree++
		}
	}
	if frac := float64(agree) / float64(testX.Rows()); frac < 0.97 {
		t.Errorf("fixed-point agreement %.3f < 0.97", frac)
	}
}

func TestCompileFixedSkipsSoftmax(t *testing.T) {
	net := testNet(8)
	fnet, err := CompileFixed(net)
	if err != nil {
		t.Fatal(err)
	}
	var buf PredictBuffer
	features := []float64{0.1, 0.2, -0.3, 0.4, 0.5}
	// Softmax preserves argmax, so the fixed net (which skips it) must agree.
	if net.Predict(features, &buf) != fnet.Predict(features) {
		t.Error("softmax-skipping fixed net disagrees on argmax")
	}
}

func TestFixedPredictNoFloatNoAlloc(t *testing.T) {
	net := testNet(9)
	fnet, err := CompileFixed(net)
	if err != nil {
		t.Fatal(err)
	}
	features := []float64{0.1, 0.2, -0.3, 0.4, 0.5}
	fnet.Predict(features)
	allocs := testing.AllocsPerRun(100, func() { fnet.Predict(features) })
	if allocs != 0 {
		t.Errorf("fixed inference allocates %.1f objects per run", allocs)
	}
}

func TestFixedParamBytes(t *testing.T) {
	net := testNet(10)
	fnet, err := CompileFixed(net)
	if err != nil {
		t.Fatal(err)
	}
	// int32 params = half the float64 bytes.
	if fnet.ParamBytes()*2 != net.ParamBytes() {
		t.Errorf("fixed %dB vs float %dB", fnet.ParamBytes(), net.ParamBytes())
	}
}

func BenchmarkFixedInference(b *testing.B) {
	net := testNet(11)
	fnet, err := CompileFixed(net)
	if err != nil {
		b.Fatal(err)
	}
	features := []float64{0.5, -1.2, 0.3, 2.2, -0.7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fnet.Predict(features)
	}
}
