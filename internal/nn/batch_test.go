package nn

import (
	"math/rand"
	"testing"

	"repro/internal/fixed"
)

// outputRow32 returns the logits of sample r of fn's most recent Predict
// or InferBatch call, aliasing its scratch.
func outputRow32(fn *Float32Network, r int) []float32 {
	last := 0
	for i := range fn.ops {
		if fn.ops[i].w != nil {
			last = i
		}
	}
	return fn.scratch[last].view.Row(r)
}

// outputRowQ returns the logits of sample r of fn's most recent PredictQ
// or InferBatchQ call, aliasing its scratch.
func outputRowQ(fn *FixedNetwork, r int) []fixed.Q16 {
	last := 0
	for i := range fn.ops {
		if fn.ops[i].w != nil {
			last = i
		}
	}
	return fn.ops[last].view.Row(r)
}

// randFeatures returns rows×inDim features in [-2, 2).
func randFeatures(rng *rand.Rand, rows, inDim int) []float64 {
	feats := make([]float64, rows*inDim)
	for i := range feats {
		feats[i] = rng.Float64()*4 - 2
	}
	return feats
}

// TestInferBatchMatchesPredictF32 checks the satellite equivalence claim
// for the float32 path: a batch of N samples must produce logits
// bitwise-identical to N single-sample calls, for every batch size.
func TestInferBatchMatchesPredictF32(t *testing.T) {
	net := testNet(40)
	f32, err := CompileFloat32(net)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for _, rows := range []int{1, 2, 3, 7, 16, 64, 129} {
		feats := randFeatures(rng, rows, f32.InDim())
		classes := make([]int, rows)
		f32.InferBatch(feats, rows, classes)
		batchLogits := make([][]float32, rows)
		for r := 0; r < rows; r++ {
			batchLogits[r] = append([]float32(nil), outputRow32(f32, r)...)
		}
		for r := 0; r < rows; r++ {
			sample := feats[r*f32.InDim() : (r+1)*f32.InDim()]
			if got := f32.Predict(sample); got != classes[r] {
				t.Fatalf("rows=%d sample %d: batch class %d, single class %d", rows, r, classes[r], got)
			}
			for j, v := range outputRow32(f32, 0) {
				if batchLogits[r][j] != v {
					t.Fatalf("rows=%d sample %d logit %d: batch %v != single %v (not bitwise equal)",
						rows, r, j, batchLogits[r][j], v)
				}
			}
		}
	}
}

// TestInferBatchMatchesPredictFixed checks the same claim for the Q16.16
// path, where integer arithmetic makes equality exact by construction.
func TestInferBatchMatchesPredictFixed(t *testing.T) {
	net := testNet(42)
	fx, err := CompileFixed(net)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	for _, rows := range []int{1, 5, 32, 64} {
		feats := randFeatures(rng, rows, fx.InDim())
		classes := make([]int, rows)
		fx.InferBatch(feats, rows, classes)
		batchLogits := make([][]fixed.Q16, rows)
		for r := 0; r < rows; r++ {
			batchLogits[r] = append([]fixed.Q16(nil), outputRowQ(fx, r)...)
		}
		q := make([]fixed.Q16, fx.InDim())
		for r := 0; r < rows; r++ {
			sample := feats[r*fx.InDim() : (r+1)*fx.InDim()]
			if got := fx.Predict(sample); got != classes[r] {
				t.Fatalf("rows=%d sample %d: batch class %d, single class %d", rows, r, classes[r], got)
			}
			for i, f := range sample {
				q[i] = fixed.FromFloat(f)
			}
			fx.PredictQ(q)
			for j, v := range outputRowQ(fx, 0) {
				if batchLogits[r][j] != v {
					t.Fatalf("rows=%d sample %d logit %d: batch %v != single %v", rows, r, j, batchLogits[r][j], v)
				}
			}
		}
	}
}

// TestInferBatchQPanicsOverCapacity pins the kernelspace contract: the
// integer batch path never allocates, so exceeding the reserved scratch is
// a caller bug and must panic rather than silently grow.
func TestInferBatchQPanicsOverCapacity(t *testing.T) {
	net := testNet(44)
	fx, err := CompileFixed(net)
	if err != nil {
		t.Fatal(err)
	}
	fx.EnsureBatch(4)
	feats := make([]fixed.Q16, 8*fx.InDim())
	classes := make([]int, 8)
	defer func() {
		if recover() == nil {
			t.Error("InferBatchQ beyond EnsureBatch capacity must panic")
		}
	}()
	fx.InferBatchQ(feats, 8, classes)
}

// TestPredictBatchMatchesPredict checks the float64 training-network batch
// path used by the parallel evaluation harness.
func TestPredictBatchMatchesPredict(t *testing.T) {
	net := testNet(45)
	rng := rand.New(rand.NewSource(46))
	var single PredictBuffer
	var batch PredictBuffer
	for _, rows := range []int{1, 3, 17, 64} {
		feats := randFeatures(rng, rows, net.InDim())
		classes := make([]int, rows)
		net.PredictBatch(feats, rows, classes, &batch)
		for r := 0; r < rows; r++ {
			sample := feats[r*net.InDim() : (r+1)*net.InDim()]
			if got := net.Predict(sample, &single); got != classes[r] {
				t.Fatalf("rows=%d sample %d: batch class %d, single class %d", rows, r, classes[r], got)
			}
		}
	}
}

// TestInferBatchAllocFree is the satellite alloc gate for inference: at
// steady state (batch capacity reached) every batched path must be
// allocation-free, including when the batch size varies below the
// high-water mark.
func TestInferBatchAllocFree(t *testing.T) {
	net := testNet(47)
	f32, err := CompileFloat32(net)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := CompileFixed(net)
	if err != nil {
		t.Fatal(err)
	}
	const maxRows = 64
	rng := rand.New(rand.NewSource(48))
	feats := randFeatures(rng, maxRows, net.InDim())
	classes := make([]int, maxRows)
	f32.EnsureBatch(maxRows)
	fx.EnsureBatch(maxRows)
	var buf PredictBuffer
	net.PredictBatch(feats, maxRows, classes, &buf)
	for _, rows := range []int{maxRows, 17, 1} {
		rows := rows
		if a := testing.AllocsPerRun(100, func() { f32.InferBatch(feats[:rows*net.InDim()], rows, classes) }); a != 0 {
			t.Errorf("float32 InferBatch rows=%d allocates %.1f/run", rows, a)
		}
		if a := testing.AllocsPerRun(100, func() { fx.InferBatch(feats[:rows*net.InDim()], rows, classes) }); a != 0 {
			t.Errorf("fixed InferBatch rows=%d allocates %.1f/run", rows, a)
		}
		if a := testing.AllocsPerRun(100, func() { net.PredictBatch(feats[:rows*net.InDim()], rows, classes, &buf) }); a != 0 {
			t.Errorf("float64 PredictBatch rows=%d allocates %.1f/run", rows, a)
		}
	}
}

// TestTrainingStepAllocFree is the satellite alloc gate for training: after
// the first step sizes the layer scratch, a full forward/backward/update
// iteration must not allocate.
func TestTrainingStepAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	net := NewNetwork(
		NewLinear(4, 15, rng), NewSigmoid(),
		NewLinear(15, 15, rng), NewSigmoid(),
		NewLinear(15, 4, rng),
	)
	loss := NewCrossEntropy()
	opt := NewSGD(0.05, 0.9)
	_, labels := blobs(rng, 32)
	x := randFeatures(rng, 32, 4)
	batch := fromSlice(32, 4, x)
	target := ClassTarget(padLabels(labels, 4))
	net.TrainBatch(batch, target, loss, opt)
	if a := testing.AllocsPerRun(50, func() { net.TrainBatch(batch, target, loss, opt) }); a != 0 {
		t.Errorf("training step allocates %.1f/run, want 0", a)
	}
}

// padLabels clamps labels into [0, classes).
func padLabels(labels []int, classes int) []int {
	out := make([]int, len(labels))
	for i, l := range labels {
		out[i] = l % classes
	}
	return out
}

// FuzzInferBatchEquivalence builds random network shapes and checks that
// batched inference matches per-sample inference bitwise (float32) and
// exactly (Q16.16) across random batch sizes — the fuzz half of the
// satellite equivalence suite.
func FuzzInferBatchEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2))
	f.Add(int64(7), uint8(17), uint8(64))
	f.Add(int64(99), uint8(40), uint8(5))
	// rows 1, 2, 3, 4, 5 and 7 reach every row tail of the vector kernels
	// and every len%4 tail of the vector sigmoid. Shape 123 is 4→16→2 with
	// sigmoid (both multiply-bias kernels), shape 99 is 4→13→6 with sigmoid.
	for i, rows := range []uint8{1, 2, 3, 4, 5, 7} {
		shape := uint8(123)
		if i%2 == 1 {
			shape = 99
		}
		f.Add(int64(38+i), shape, rows-1)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, batch uint8) {
		rng := rand.New(rand.NewSource(seed))
		inDim := 1 + int(shape%8)
		hidden := 1 + int(shape/8)%24 // exercises both the n≤16 kernel and the fallback
		outDim := 2 + int(shape/4)%5
		rows := 1 + int(batch%80)
		acts := []func() Layer{func() Layer { return NewSigmoid() }, func() Layer { return NewReLU() }, func() Layer { return NewTanh() }}
		net := NewNetwork(
			NewLinear(inDim, hidden, rng), acts[int(shape)%3](),
			NewLinear(hidden, outDim, rng), NewSoftmax(),
		)
		f32, err := CompileFloat32(net)
		if err != nil {
			t.Fatal(err)
		}
		fx, err := CompileFixed(net)
		if err != nil {
			t.Fatal(err)
		}
		feats := randFeatures(rng, rows, inDim)
		classes := make([]int, rows)
		f32.InferBatch(feats, rows, classes)
		batchLogits := make([][]float32, rows)
		for r := 0; r < rows; r++ {
			batchLogits[r] = append([]float32(nil), outputRow32(f32, r)...)
		}
		for r := 0; r < rows; r++ {
			sample := feats[r*inDim : (r+1)*inDim]
			if got := f32.Predict(sample); got != classes[r] {
				t.Fatalf("f32 sample %d: batch class %d, single class %d", r, classes[r], got)
			}
			for j, v := range outputRow32(f32, 0) {
				if batchLogits[r][j] != v {
					t.Fatalf("f32 sample %d logit %d: batch %v != single %v", r, j, batchLogits[r][j], v)
				}
			}
		}
		fxClasses := make([]int, rows)
		fx.InferBatch(feats, rows, fxClasses)
		for r := 0; r < rows; r++ {
			sample := feats[r*inDim : (r+1)*inDim]
			if got := fx.Predict(sample); got != fxClasses[r] {
				t.Fatalf("fixed sample %d: batch class %d, single class %d", r, fxClasses[r], got)
			}
		}
	})
}
