// Package readahead is the KML application of the paper's case study: a
// workload classifier that tunes readahead values once per second from
// page-cache tracepoint features.
//
// The package contains the three pieces of the paper's workflow (§3.3, §4):
//
//   - model.go — the neural-network architecture (three linear layers with
//     sigmoid activations, cross-entropy loss, SGD lr=0.01 momentum=0.99),
//     training, k-fold cross-validation, and the decision-tree alternative;
//   - dataset.go — training-data collection by running the four training
//     workloads on NVMe and labeling one-second feature windows;
//   - tuner.go — the deployed closed loop: tracepoint hook → lock-free
//     ring → feature window → inference → blockdev readahead ioctl.
package readahead

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/dtree"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// HiddenSize is the width of the model's two hidden layers. With 4 inputs
// and 4 classes this yields 379 float parameters — a ~3 KB float64 model,
// matching the order of the paper's 3,916-byte kernel footprint.
const HiddenSize = 15

// NewModel builds the readahead network: three linear layers joined by
// sigmoid activations (§4: "Our model has three linear layers, and these
// layers are connected with sigmoid activation functions").
func NewModel(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewNetwork(
		nn.NewLinear(features.Count, HiddenSize, rng),
		nn.NewSigmoid(),
		nn.NewLinear(HiddenSize, HiddenSize, rng),
		nn.NewSigmoid(),
		nn.NewLinear(HiddenSize, workload.NumClasses, rng),
	)
}

// TrainConfig parameterizes model training. The zero value gives the
// paper's optimizer settings.
type TrainConfig struct {
	// Epochs over the training set; 0 means 150.
	Epochs int
	// Batch is the minibatch size; 0 means 16.
	Batch int
	// LR is the SGD learning rate; 0 means 0.01 (paper).
	LR float64
	// Momentum is the SGD momentum; 0 means 0.99 (paper).
	Momentum float64
	// Seed shuffles minibatches.
	Seed int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 150
	}
	if c.Batch == 0 {
		c.Batch = 16
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.Momentum == 0 {
		c.Momentum = 0.99
	}
	return c
}

// TrainModel fits net on normalized feature vectors with minibatch SGD and
// returns the mean loss of each epoch.
func TrainModel(net *nn.Network, x []features.Vector, y []int, cfg TrainConfig) []float64 {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	loss := nn.NewCrossEntropy()
	opt := nn.NewSGD(cfg.LR, cfg.Momentum)
	n := len(x)
	order := rng.Perm(n)
	losses := make([]float64, 0, cfg.Epochs)
	batchX := nn.NewMat(cfg.Batch, features.Count)
	batchY := make([]int, cfg.Batch)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		sum, batches := 0.0, 0
		for start := 0; start+cfg.Batch <= n; start += cfg.Batch {
			for bi := 0; bi < cfg.Batch; bi++ {
				idx := order[start+bi]
				features.SelectInto(batchX.Row(bi), x[idx])
				batchY[bi] = y[idx]
			}
			sum += net.TrainBatch(batchX, nn.ClassTarget(batchY), loss, opt)
			batches++
		}
		if batches > 0 {
			losses = append(losses, sum/float64(batches))
		}
	}
	return losses
}

// Evaluate returns classification accuracy on normalized vectors. When the
// classifier has a fused batched path (core.BatchClassifier) the whole set
// is classified in one call; per-sample classes are identical either way,
// so the accuracy is too.
func Evaluate(c core.Classifier, x []features.Vector, y []int) float64 {
	if len(x) == 0 {
		return 0
	}
	correct := 0
	if bc, ok := c.(core.BatchClassifier); ok {
		flat := make([]float64, len(x)*features.Count)
		for i, v := range x {
			features.SelectInto(flat[i*features.Count:(i+1)*features.Count], v)
		}
		classes := make([]int, len(x))
		bc.PredictBatch(flat, len(x), classes)
		for i, got := range classes {
			if got == y[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(x))
	}
	buf := make([]float64, features.Count)
	for i, v := range x {
		features.SelectInto(buf, v)
		if c.Predict(buf) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

// KFoldCV reproduces the paper's validation: k-fold cross-validation
// (k=10 in §4) over raw windows, fitting the normalizer on each training
// split and returning per-fold accuracies. Samples are shuffled first so
// folds mix workloads.
func KFoldCV(raw []features.Vector, labels []int, k int, cfg TrainConfig) []float64 {
	return KFoldCVParallel(raw, labels, k, cfg, 1)
}

// KFoldCVParallel is KFoldCV with folds trained across workers goroutines
// (0 means GOMAXPROCS). Each fold's model seed is cfg.Seed+fold and the
// shuffle is drawn once up front, so every fold's work depends only on its
// index — accuracies are identical for any worker count.
func KFoldCVParallel(raw []features.Vector, labels []int, k int, cfg TrainConfig, workers int) []float64 {
	if k < 2 || len(raw) < k {
		panic("readahead: need k >= 2 and at least k samples")
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	order := rng.Perm(len(raw))
	accs := make([]float64, k)
	foldSize := len(raw) / k
	_ = parallel.For(k, parallel.Workers(workers), func(fold int) error {
		lo, hi := fold*foldSize, (fold+1)*foldSize
		if fold == k-1 {
			hi = len(raw)
		}
		var trainX, testX []features.Vector
		var trainY, testY []int
		for i, idx := range order {
			if i >= lo && i < hi {
				testX = append(testX, raw[idx])
				testY = append(testY, labels[idx])
			} else {
				trainX = append(trainX, raw[idx])
				trainY = append(trainY, labels[idx])
			}
		}
		norm := features.FitNormalizer(trainX)
		normed := make([]features.Vector, len(trainX))
		for i, v := range trainX {
			normed[i] = norm.Apply(v)
		}
		net := NewModel(cfg.Seed + int64(fold))
		TrainModel(net, normed, trainY, cfg)
		testNormed := make([]features.Vector, len(testX))
		for i, v := range testX {
			testNormed[i] = norm.Apply(v)
		}
		accs[fold] = Evaluate(NewNNClassifier(net), testNormed, testY)
		return nil
	})
	return accs
}

// Mean averages a slice (fold accuracies, epoch losses).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// NNClassifier adapts a neural network to core.Classifier.
type NNClassifier struct {
	net *nn.Network
	buf nn.PredictBuffer
}

// NewNNClassifier wraps a trained network.
func NewNNClassifier(net *nn.Network) *NNClassifier { return &NNClassifier{net: net} }

// Predict implements core.Classifier.
func (c *NNClassifier) Predict(f []float64) int { return c.net.Predict(f, &c.buf) }

// PredictBatch implements core.BatchClassifier via the network's fused
// batched forward pass.
func (c *NNClassifier) PredictBatch(f []float64, rows int, classes []int) {
	c.net.PredictBatch(f, rows, classes, &c.buf)
}

// CloneClassifier implements core.Cloneable with a deep copy: the network's
// forward scratch is mutable, so parallel workers each get their own.
func (c *NNClassifier) CloneClassifier() core.Classifier {
	return NewNNClassifier(c.net.Clone())
}

// Name implements core.Classifier.
func (c *NNClassifier) Name() string { return "readahead-nn" }

// FixedClassifier adapts a quantized network to core.Classifier, for
// FPU-less inference.
type FixedClassifier struct {
	fnet *nn.FixedNetwork
	src  *nn.Network // retained for CloneClassifier recompilation
}

// NewFixedClassifier compiles net to Q16.16 inference.
func NewFixedClassifier(net *nn.Network) (*FixedClassifier, error) {
	fnet, err := nn.CompileFixed(net)
	if err != nil {
		return nil, err
	}
	return &FixedClassifier{fnet: fnet, src: net}, nil
}

// Predict implements core.Classifier.
func (c *FixedClassifier) Predict(f []float64) int { return c.fnet.Predict(f) }

// PredictBatch implements core.BatchClassifier via the fused integer path.
func (c *FixedClassifier) PredictBatch(f []float64, rows int, classes []int) {
	c.fnet.InferBatch(f, rows, classes)
}

// CloneClassifier implements core.Cloneable by recompiling the retained
// source network; compilation is deterministic, so the clone predicts
// identically.
func (c *FixedClassifier) CloneClassifier() core.Classifier {
	clone, err := NewFixedClassifier(c.src)
	if err != nil {
		// The source compiled once already; recompilation cannot fail.
		panic(err)
	}
	return clone
}

// Name implements core.Classifier.
func (c *FixedClassifier) Name() string { return "readahead-nn-fixed" }

// TreeClassifier adapts the decision-tree model family (§4: "We have also
// implemented a decision tree for the readahead use-case").
type TreeClassifier struct {
	tree *dtree.Tree
}

// TrainTree fits the readahead decision tree on normalized vectors.
func TrainTree(x []features.Vector, y []int) (*TreeClassifier, error) {
	rows := make([][]float64, len(x))
	for i, v := range x {
		rows[i] = features.Select(v)
	}
	t, err := dtree.Train(rows, y, workload.NumClasses, dtree.Options{MaxDepth: 10, MinLeaf: 3})
	if err != nil {
		return nil, err
	}
	return &TreeClassifier{tree: t}, nil
}

// Predict implements core.Classifier.
func (c *TreeClassifier) Predict(f []float64) int { return c.tree.Predict(f) }

// PredictBatch implements core.BatchClassifier; tree traversal has no
// batched kernel, so this is a plain loop over the pure Predict.
func (c *TreeClassifier) PredictBatch(f []float64, rows int, classes []int) {
	d := len(f) / rows
	for r := 0; r < rows; r++ {
		classes[r] = c.tree.Predict(f[r*d : (r+1)*d])
	}
}

// CloneClassifier implements core.Cloneable. Tree traversal is pure, so
// clones share the immutable tree.
func (c *TreeClassifier) CloneClassifier() core.Classifier {
	return &TreeClassifier{tree: c.tree}
}

// Name implements core.Classifier.
func (c *TreeClassifier) Name() string { return "readahead-dtree" }

// Tree returns the wrapped tree (for saving).
func (c *TreeClassifier) Tree() *dtree.Tree { return c.tree }
