package nn

import (
	"math/rand"
	"testing"
)

func TestCompileFloat32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := NewNetwork(NewLinear(2, 8, rng), NewSigmoid(), NewLinear(8, 3, rng))
	trainX, trainY := blobs(rng, 200)
	loss := NewCrossEntropy()
	opt := NewSGD(0.1, 0.9)
	for i := 0; i < 300; i++ {
		net.TrainBatch(trainX, ClassTarget(trainY), loss, opt)
	}
	f32, err := CompileFloat32(net)
	if err != nil {
		t.Fatal(err)
	}
	if f32.InDim() != 2 {
		t.Error("InDim")
	}
	testX, _ := blobs(rng, 500)
	var buf PredictBuffer
	agree := 0
	for i := 0; i < testX.Rows(); i++ {
		if net.Predict(testX.Row(i), &buf) == f32.Predict(testX.Row(i)) {
			agree++
		}
	}
	// float32 rounding can flip only near-tie predictions.
	if frac := float64(agree) / float64(testX.Rows()); frac < 0.99 {
		t.Errorf("float32 agreement %.3f", frac)
	}
}

func TestCompileFloat32Softmax(t *testing.T) {
	net := testNet(30) // includes a trailing Softmax
	f32, err := CompileFloat32(net)
	if err != nil {
		t.Fatal(err)
	}
	var buf PredictBuffer
	in := []float64{0.3, -0.2, 0.1, 0.7, -0.4}
	if net.Predict(in, &buf) != f32.Predict(in) {
		t.Error("softmax-skipping float32 net disagrees on argmax")
	}
}

func TestFloat32HalvesParamBytes(t *testing.T) {
	net := testNet(31)
	f32, err := CompileFloat32(net)
	if err != nil {
		t.Fatal(err)
	}
	if f32.ParamBytes()*2 != net.ParamBytes() {
		t.Errorf("float32 %dB vs float64 %dB", f32.ParamBytes(), net.ParamBytes())
	}
}

func TestFloat32NoAlloc(t *testing.T) {
	net := testNet(32)
	f32, err := CompileFloat32(net)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	f32.Predict(in)
	if allocs := testing.AllocsPerRun(100, func() { f32.Predict(in) }); allocs != 0 {
		t.Errorf("float32 inference allocates %.1f/run", allocs)
	}
}

func TestFloat32Logits(t *testing.T) {
	net := testNet(33)
	f32, err := CompileFloat32(net)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	f32.Predict(in)
	logits := outputRow32(f32, 0)
	if len(logits) != 4 {
		t.Fatalf("logits len %d", len(logits))
	}
	best, bestV := 0, logits[0]
	for i, v := range logits {
		if v > bestV {
			best, bestV = i, v
		}
	}
	if best != f32.Predict(in) {
		t.Error("Predict must be argmax of Logits")
	}
}

func TestFloat32WrongDimPanics(t *testing.T) {
	net := testNet(34)
	f32, err := CompileFloat32(net)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong feature count must panic")
		}
	}()
	f32.Predict([]float64{1})
}

func BenchmarkFloat32Inference(b *testing.B) {
	net := testNet(35)
	f32, err := CompileFloat32(net)
	if err != nil {
		b.Fatal(err)
	}
	in := []float64{0.5, -1.2, 0.3, 2.2, -0.7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f32.Predict(in)
	}
}

// TestForkSharesParameters pins the weights/scratch split: a fork reads
// the very same parameter matrices (no copy, however large the model),
// writes only buffers of its own, and so computes bitwise what the
// network it was forked from computes.
func TestForkSharesParameters(t *testing.T) {
	f32, err := CompileFloat32(testNet(36))
	if err != nil {
		t.Fatal(err)
	}
	fork := f32.Fork()
	for i := range f32.ops {
		if fork.ops[i].w != f32.ops[i].w || fork.ops[i].b != f32.ops[i].b {
			t.Fatalf("op %d: fork copied its parameters", i)
		}
		if out := fork.scratch[i].out; out != nil && out == f32.scratch[i].out {
			t.Fatalf("op %d: fork shares output scratch", i)
		}
	}
	if fork.inBuf == f32.inBuf {
		t.Fatal("fork shares input scratch")
	}
	if fork.InDim() != f32.InDim() || fork.OutDim() != f32.OutDim() || fork.ParamBytes() != f32.ParamBytes() {
		t.Error("fork reports a different shape")
	}
	const rows = 37
	feats := randFeatures(rand.New(rand.NewSource(37)), rows, f32.InDim())
	a, b := make([]int, rows), make([]int, rows)
	fork.InferBatch(feats, rows, a) // grows the fork's scratch only
	f32.InferBatch(feats, rows, b)
	for r := 0; r < rows; r++ {
		if a[r] != b[r] {
			t.Fatalf("row %d: fork class %d, original %d", r, a[r], b[r])
		}
		for j, v := range outputRow32(f32, r) {
			if outputRow32(fork, r)[j] != v {
				t.Fatalf("row %d logit %d: fork %v != original %v", r, j, outputRow32(fork, r)[j], v)
			}
		}
	}
}

func TestCompileFloat32RejectsNoLinearLayer(t *testing.T) {
	if _, err := CompileFloat32(NewNetwork(NewSigmoid(), NewSoftmax())); err == nil {
		t.Error("a network without a linear layer has no output width to serve")
	}
}
