package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// fromSlice returns a rows×cols matrix holding a copy of data.
func fromSlice(rows, cols int, data []float64) *Mat {
	m := matrix.New[float64](rows, cols)
	if copy(m.Data(), data) != rows*cols {
		panic("fromSlice: wrong element count")
	}
	return m
}

// sameMat reports whether a and b have the same shape and elements.
func sameMat(a, b *Mat) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i, v := range a.Data() {
		if v != b.Data()[i] {
			return false
		}
	}
	return true
}

func TestLinearForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(2, 3, rng)
	// Overwrite with known weights.
	copy(l.w.Data(), []float64{1, 2, 3, 4, 5, 6})
	copy(l.b.Data(), []float64{0.5, -0.5, 1})
	in := fromSlice(1, 2, []float64{1, 2})
	out := l.Forward(in)
	want := []float64{1*1 + 2*4 + 0.5, 1*2 + 2*5 - 0.5, 1*3 + 2*6 + 1}
	for j, w := range want {
		if math.Abs(out.At(0, j)-w) > 1e-12 {
			t.Errorf("out[%d] = %g, want %g", j, out.At(0, j), w)
		}
	}
}

func TestLinearXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(10, 20, rng)
	limit := math.Sqrt(6.0 / 30.0)
	for _, v := range l.w.Data() {
		if v < -limit || v > limit {
			t.Fatalf("weight %g outside Xavier bound %g", v, limit)
		}
	}
	for _, v := range l.b.Data() {
		if v != 0 {
			t.Fatal("bias must initialize to zero")
		}
	}
}

func TestActivations(t *testing.T) {
	in := fromSlice(1, 3, []float64{-1, 0, 2})
	sig := NewSigmoid().Forward(in)
	if math.Abs(sig.At(0, 1)-0.5) > 1e-12 {
		t.Error("sigmoid(0) != 0.5")
	}
	relu := NewReLU().Forward(in)
	if relu.At(0, 0) != 0 || relu.At(0, 2) != 2 {
		t.Error("relu values")
	}
	tanh := NewTanh().Forward(in)
	if math.Abs(tanh.At(0, 2)-math.Tanh(2)) > 1e-10 {
		t.Error("tanh value")
	}
}

func TestSoftmaxLayer(t *testing.T) {
	sm := NewSoftmax()
	out := sm.Forward(fromSlice(2, 2, []float64{0, 0, 1, 3}))
	if math.Abs(out.At(0, 0)-0.5) > 1e-12 {
		t.Error("uniform softmax")
	}
	sum := out.At(1, 0) + out.At(1, 1)
	if math.Abs(sum-1) > 1e-12 {
		t.Error("softmax rows must sum to 1")
	}
	defer func() {
		if recover() == nil {
			t.Error("Softmax.Backward must panic")
		}
	}()
	sm.Backward(nil)
}

// numericalGrad estimates dLoss/dParam by central differences.
func numericalGrad(net *Network, loss Loss, in *Mat, target Target, p *Mat, i int) float64 {
	const eps = 1e-6
	data := p.Data()
	orig := data[i]
	data[i] = orig + eps
	lp := loss.Forward(net.Forward(in), target)
	data[i] = orig - eps
	lm := loss.Forward(net.Forward(in), target)
	data[i] = orig
	return (lp - lm) / (2 * eps)
}

func gradCheck(t *testing.T, net *Network, loss Loss, in *Mat, target Target) {
	t.Helper()
	net.ZeroGrads()
	out := net.Forward(in)
	loss.Forward(out, target)
	net.Backward(loss.Backward())
	params, grads := net.Params(), net.Grads()
	for pi, p := range params {
		g := grads[pi]
		for i := range p.Data() {
			want := numericalGrad(net, loss, in, target, p, i)
			got := g.Data()[i]
			scale := math.Max(math.Abs(want), math.Abs(got))
			if scale < 1e-8 {
				continue
			}
			if math.Abs(got-want)/math.Max(scale, 1e-4) > 1e-4 {
				t.Errorf("param %d elem %d: analytic %g vs numeric %g", pi, i, got, want)
			}
		}
	}
}

func TestGradCheckCrossEntropyMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(
		NewLinear(4, 6, rng), NewSigmoid(),
		NewLinear(6, 5, rng), NewSigmoid(),
		NewLinear(5, 3, rng),
	)
	in := matrix.New[float64](5, 4)
	for i := range in.Data() {
		in.Data()[i] = rng.NormFloat64()
	}
	gradCheck(t, net, NewCrossEntropy(), in, ClassTarget([]int{0, 1, 2, 1, 0}))
}

func TestGradCheckReLUTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewNetwork(
		NewLinear(3, 8, rng), NewTanh(),
		NewLinear(8, 4, rng), NewReLU(),
		NewLinear(4, 2, rng),
	)
	in := matrix.New[float64](4, 3)
	for i := range in.Data() {
		in.Data()[i] = rng.NormFloat64()
	}
	gradCheck(t, net, NewCrossEntropy(), in, ClassTarget([]int{0, 1, 1, 0}))
}

func TestGradCheckBCE(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewNetwork(NewLinear(3, 4, rng), NewSigmoid(), NewLinear(4, 1, rng))
	in := matrix.New[float64](6, 3)
	for i := range in.Data() {
		in.Data()[i] = rng.NormFloat64()
	}
	gradCheck(t, net, NewBCE(), in, ClassTarget([]int{0, 1, 1, 0, 1, 0}))
}

func TestXORConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork(NewLinear(2, 8, rng), NewTanh(), NewLinear(8, 2, rng))
	in := fromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	labels := []int{0, 1, 1, 0}
	loss := NewCrossEntropy()
	opt := NewSGD(0.5, 0.9)
	var lv float64
	for i := 0; i < 2000; i++ {
		lv = net.TrainBatch(in, ClassTarget(labels), loss, opt)
	}
	if lv > 0.01 {
		t.Fatalf("XOR loss did not converge: %g", lv)
	}
	out := net.Forward(in)
	for i, want := range labels {
		if out.ArgMaxRow(i) != want {
			t.Errorf("XOR sample %d misclassified", i)
		}
	}
}

// blobs generates a 3-class Gaussian-blob dataset.
func blobs(rng *rand.Rand, n int) (*Mat, []int) {
	centers := [][2]float64{{0, 0}, {4, 4}, {-4, 4}}
	in := matrix.New[float64](n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(3)
		labels[i] = c
		in.Set(i, 0, centers[c][0]+rng.NormFloat64())
		in.Set(i, 1, centers[c][1]+rng.NormFloat64())
	}
	return in, labels
}

func TestMultiClassTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trainX, trainY := blobs(rng, 300)
	testX, testY := blobs(rng, 200)
	net := NewNetwork(
		NewLinear(2, 16, rng), NewSigmoid(),
		NewLinear(16, 16, rng), NewSigmoid(),
		NewLinear(16, 3, rng),
	)
	loss := NewCrossEntropy()
	opt := NewSGD(0.1, 0.9)
	for epoch := 0; epoch < 200; epoch++ {
		net.TrainBatch(trainX, ClassTarget(trainY), loss, opt)
	}
	out := net.Forward(testX)
	correct := 0
	for i, want := range testY {
		if out.ArgMaxRow(i) == want {
			correct++
		}
	}
	acc := float64(correct) / float64(len(testY))
	if acc < 0.95 {
		t.Fatalf("blob accuracy %.3f < 0.95", acc)
	}
}

func TestSGDMomentumAcceleratesOnQuadratic(t *testing.T) {
	// Minimize f(w) = w² with plain SGD vs heavy-ball momentum at the same
	// (deliberately small) learning rate: momentum amplifies the effective
	// step by ~1/(1−μ) and must converge far faster over a long horizon.
	run := func(momentum float64, iters int) float64 {
		p := fromSlice(1, 1, []float64{10})
		g := matrix.New[float64](1, 1)
		opt := NewSGD(0.001, momentum)
		for i := 0; i < iters; i++ {
			g.Set(0, 0, 2*p.At(0, 0))
			opt.Step([]*Mat{p}, []*Mat{g})
		}
		return math.Abs(p.At(0, 0))
	}
	plain := run(0, 500)
	mom := run(0.9, 500)
	if mom >= plain {
		t.Errorf("momentum (%g) should beat plain SGD (%g) on quadratic", mom, plain)
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	p := fromSlice(1, 1, []float64{1})
	g := matrix.New[float64](1, 1) // zero gradient
	opt := NewSGD(0.1, 0)
	opt.WeightDecay = 0.5
	for i := 0; i < 10; i++ {
		opt.Step([]*Mat{p}, []*Mat{g})
	}
	if v := p.At(0, 0); v >= 1 || v <= 0 {
		t.Errorf("weight decay should shrink toward 0, got %g", v)
	}
}

func TestSGDValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSGD(0, 0.9) },
		func() { NewSGD(0.1, 1.0) },
		func() { NewSGD(0.1, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid SGD config must panic")
				}
			}()
			f()
		}()
	}
}

func TestNetworkDimsAndString(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewNetwork(NewLinear(5, 16, rng), NewSigmoid(), NewLinear(16, 4, rng))
	if net.InDim() != 5 || net.OutDim() != 4 {
		t.Errorf("dims %d→%d", net.InDim(), net.OutDim())
	}
	if s := net.String(); s != "linear(5→16) → sigmoid → linear(16→4)" {
		t.Errorf("String() = %q", s)
	}
	if net.ParamCount() != 5*16+16+16*4+4 {
		t.Errorf("ParamCount = %d", net.ParamCount())
	}
	if net.ParamBytes() != int64(net.ParamCount())*8 {
		t.Error("ParamBytes")
	}
}

func TestNetworkDimMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	defer func() {
		if recover() == nil {
			t.Error("dim mismatch must panic")
		}
	}()
	NewNetwork(NewLinear(5, 16, rng), NewLinear(8, 4, rng))
}

func TestPredictNoAllocAfterWarmup(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewNetwork(NewLinear(5, 16, rng), NewSigmoid(), NewLinear(16, 4, rng))
	var buf PredictBuffer
	features := []float64{0.1, -0.2, 0.3, 0.4, -0.5}
	net.Predict(features, &buf) // warm up buffers
	allocs := testing.AllocsPerRun(100, func() {
		net.Predict(features, &buf)
	})
	if allocs != 0 {
		t.Errorf("Predict allocates %.1f objects per run; inference must be allocation-free", allocs)
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	ce := NewCrossEntropy()
	logits := fromSlice(1, 3, []float64{100, 0, 0})
	if l := ce.Forward(logits, ClassTarget([]int{0})); l > 1e-6 {
		t.Errorf("perfect prediction loss = %g", l)
	}
	logitsBad := fromSlice(1, 3, []float64{0, 100, 0})
	if l := ce.Forward(logitsBad, ClassTarget([]int{0})); l < 10 {
		t.Errorf("confident wrong prediction loss = %g, want large", l)
	}
}

func TestCrossEntropyUniformLoss(t *testing.T) {
	ce := NewCrossEntropy()
	logits := matrix.New[float64](1, 4) // uniform
	want := math.Log(4)
	if l := ce.Forward(logits, ClassTarget([]int{2})); math.Abs(l-want) > 1e-10 {
		t.Errorf("uniform loss = %g, want ln(4)=%g", l, want)
	}
}

func TestCrossEntropyLabelValidation(t *testing.T) {
	ce := NewCrossEntropy()
	defer func() {
		if recover() == nil {
			t.Error("out-of-range label must panic")
		}
	}()
	ce.Forward(matrix.New[float64](1, 3), ClassTarget([]int{3}))
}

func TestBCEStability(t *testing.T) {
	bce := NewBCE()
	// Extreme logits must not produce NaN/Inf.
	pred := fromSlice(2, 1, []float64{1000, -1000})
	l := bce.Forward(pred, ClassTarget([]int{1, 0}))
	if math.IsNaN(l) || math.IsInf(l, 0) {
		t.Fatalf("BCE overflowed: %g", l)
	}
	if l > 1e-6 {
		t.Errorf("confident correct BCE = %g, want ~0", l)
	}
}

func TestTrainBatchReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewNetwork(NewLinear(2, 8, rng), NewSigmoid(), NewLinear(8, 2, rng))
	in, labels := blobs(rng, 50)
	// blobs gives 3 classes; clamp to 2 for this test.
	for i := range labels {
		if labels[i] == 2 {
			labels[i] = 0
		}
	}
	loss := NewCrossEntropy()
	opt := NewSGD(0.1, 0.9)
	first := net.TrainBatch(in, ClassTarget(labels), loss, opt)
	var last float64
	for i := 0; i < 100; i++ {
		last = net.TrainBatch(in, ClassTarget(labels), loss, opt)
	}
	if last >= first {
		t.Errorf("loss did not decrease: %g -> %g", first, last)
	}
}

func BenchmarkForwardReadaheadModel(b *testing.B) {
	// The paper's readahead model shape: 3 linear layers with sigmoids,
	// 5 inputs, 4 classes.
	rng := rand.New(rand.NewSource(12))
	net := NewNetwork(
		NewLinear(5, 15, rng), NewSigmoid(),
		NewLinear(15, 15, rng), NewSigmoid(),
		NewLinear(15, 4, rng),
	)
	var buf PredictBuffer
	features := []float64{0.5, -1.2, 0.3, 2.2, -0.7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(features, &buf)
	}
}

func BenchmarkTrainBatchReadaheadModel(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	net := NewNetwork(
		NewLinear(5, 15, rng), NewSigmoid(),
		NewLinear(15, 15, rng), NewSigmoid(),
		NewLinear(15, 4, rng),
	)
	in := matrix.New[float64](1, 5)
	for i := range in.Data() {
		in.Data()[i] = rng.NormFloat64()
	}
	loss := NewCrossEntropy()
	opt := NewSGD(0.01, 0.99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainBatch(in, ClassTarget([]int{i % 4}), loss, opt)
	}
}
