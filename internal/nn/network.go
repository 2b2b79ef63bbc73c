package nn

import (
	"fmt"
	"strings"

	"repro/internal/matrix"
)

// Network is a chain computation graph of layers. Forward traverses the
// chain front-to-back (inference); TrainBatch adds a loss evaluation and a
// back-to-front gradient pass (reverse-mode automatic differentiation, §2).
type Network struct {
	layers []Layer

	// params and grads cache the per-layer parameter and gradient
	// matrices in layer order. The layer set is fixed at construction, so
	// building these once removes every per-iteration slice allocation
	// from the training step (TrainBatch and ZeroGrads are 0 allocs/op).
	params []*Mat
	grads  []*Mat
}

// chainErr reports the first layer whose declared input width differs
// from the output width before it.
func chainErr(layers []Layer) error {
	prevOut := 0
	for i, l := range layers {
		if in := l.InDim(); in != 0 && prevOut != 0 && in != prevOut {
			return fmt.Errorf("nn: layer %d (%s) expects %d inputs, previous produces %d",
				i, l.Name(), in, prevOut)
		}
		if out := l.OutDim(); out != 0 {
			prevOut = out
		}
	}
	return nil
}

// NewNetwork builds a chain network. Adjacent layer dimensions are checked
// where both sides declare them (activations are dimension-polymorphic).
func NewNetwork(layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: empty network")
	}
	if err := chainErr(layers); err != nil {
		panic(err.Error())
	}
	n := &Network{layers: layers}
	for _, l := range layers {
		n.params = append(n.params, l.Params()...)
		n.grads = append(n.grads, l.Grads()...)
	}
	return n
}

// InDim returns the input feature dimension (from the first sizing layer).
func (n *Network) InDim() int {
	for _, l := range n.layers {
		if d := l.InDim(); d != 0 {
			return d
		}
	}
	return 0
}

// OutDim returns the output dimension (from the last sizing layer).
func (n *Network) OutDim() int {
	for i := len(n.layers) - 1; i >= 0; i-- {
		if d := n.layers[i].OutDim(); d != 0 {
			return d
		}
	}
	return 0
}

// Forward runs inference on a batch (rows = samples) and returns the final
// layer output. The result aliases layer-owned buffers: it is valid until
// the next Forward call.
func (n *Network) Forward(in *Mat) *Mat {
	cur := in
	for _, l := range n.layers {
		cur = l.Forward(cur)
	}
	return cur
}

// Backward propagates ∂L/∂output back through the chain, accumulating
// parameter gradients. It must follow a Forward on the same batch.
func (n *Network) Backward(dOut *Mat) {
	cur := dOut
	for i := len(n.layers) - 1; i >= 0; i-- {
		cur = n.layers[i].Backward(cur)
	}
}

// ZeroGrads clears all accumulated parameter gradients.
func (n *Network) ZeroGrads() {
	for _, g := range n.grads {
		g.Zero()
	}
}

// Params returns all trainable parameters in layer order. The slice is
// cached at construction and must not be mutated by callers.
func (n *Network) Params() []*Mat { return n.params }

// Grads returns all gradient accumulators in layer order. The slice is
// cached at construction and must not be mutated by callers.
func (n *Network) Grads() []*Mat { return n.grads }

// TrainBatch runs one training iteration (forward, loss, backward,
// optimizer step) on a batch and returns the loss. This is the "one
// training iteration" the paper measures at 51 µs for the readahead model.
func (n *Network) TrainBatch(in *Mat, target Target, loss Loss, opt *SGD) float64 {
	n.ZeroGrads()
	out := n.Forward(in)
	lv := loss.Forward(out, target)
	n.Backward(loss.Backward())
	opt.Step(n.params, n.grads)
	return lv
}

// Predict runs single-sample inference and returns the argmax class.
// The features slice is copied into a reused 1×d buffer, so Predict does
// not allocate after the first call.
func (n *Network) Predict(features []float64, buf *PredictBuffer) int {
	out := n.PredictLogits(features, buf)
	return out.ArgMaxRow(0)
}

// PredictLogits runs single-sample inference and returns the output row
// (logits for classifiers). The result aliases network buffers.
func (n *Network) PredictLogits(features []float64, buf *PredictBuffer) *Mat {
	if buf.in == nil || buf.in.Cols() != len(features) {
		buf.in = matrix.New[float64](1, len(features))
	}
	copy(buf.in.Row(0), features)
	return n.Forward(buf.in)
}

// PredictBatch classifies rows samples in one batched Forward pass:
// features holds rows×InDim values row-major, and the predicted class of
// sample r is written to classes[r]. The input batch lives in buf and the
// layer scratch is capacity-sized, so once buffers have grown to the
// high-water batch size, calls with any rows up to that size are
// allocation-free — the property the serving loop's alloc gate pins.
func (n *Network) PredictBatch(features []float64, rows int, classes []int, buf *PredictBuffer) {
	d := n.InDim()
	if rows <= 0 || len(features) != rows*d {
		panic("nn: PredictBatch feature length mismatch")
	}
	if len(classes) < rows {
		panic("nn: PredictBatch classes slice too short")
	}
	if buf.batch == nil || buf.batch.Cols() != d || buf.batch.Rows() < rows {
		buf.batch = matrix.New[float64](rows, d)
	}
	buf.view = buf.batch.SliceRows(rows)
	copy(buf.view.Data(), features)
	out := n.Forward(&buf.view)
	for r := 0; r < rows; r++ {
		classes[r] = out.ArgMaxRow(r)
	}
}

// PredictBuffer holds the single-sample input buffer for Predict, so
// callers control the allocation (the paper's 676 B inference scratch).
// PredictBatch keeps its capacity-sized batch input here as well; the
// view field re-slices it per call without allocating.
type PredictBuffer struct {
	in    *Mat
	batch *Mat
	view  Mat
}

// InferenceScratchBytes returns the bytes of reusable buffers that
// single-sample inference touches beyond the parameters — the analogue of
// the paper's "676 bytes of memory while inferencing".
func (n *Network) InferenceScratchBytes() int64 {
	cur := n.InDim()
	total := int64(cur) * 8 // the PredictBuffer input row
	for _, l := range n.layers {
		switch t := l.(type) {
		case *Linear:
			cur = t.out
			total += int64(cur) * 8
		case *activation, *Softmax:
			total += int64(cur) * 8
		}
	}
	return total
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Rows() * p.Cols()
	}
	return total
}

// ParamBytes returns the bytes held by trainable parameters (float64),
// the dominant term in the paper's "3,916 bytes of dynamic memory" figure.
func (n *Network) ParamBytes() int64 { return int64(n.ParamCount()) * 8 }

// String summarizes the architecture, e.g. "linear(5→16) → sigmoid → ...".
func (n *Network) String() string {
	var b strings.Builder
	for i, l := range n.layers {
		if i > 0 {
			b.WriteString(" → ")
		}
		if l.InDim() != 0 || l.OutDim() != 0 {
			fmt.Fprintf(&b, "%s(%d→%d)", l.Name(), l.InDim(), l.OutDim())
		} else {
			b.WriteString(l.Name())
		}
	}
	return b.String()
}

// SGD is stochastic gradient descent with classical momentum, the optimizer
// the paper trains with (lr = 0.01, momentum = 0.99, §4).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity []*Mat
}

// NewSGD returns an SGD optimizer with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	if lr <= 0 {
		panic("nn: learning rate must be positive")
	}
	if momentum < 0 || momentum >= 1 {
		panic("nn: momentum must be in [0, 1)")
	}
	return &SGD{LR: lr, Momentum: momentum}
}

// Step applies one update: v ← μ·v − lr·(g + wd·p); p ← p + v.
// Velocity buffers are allocated on first use and keyed by position, so a
// single SGD instance must always be used with the same parameter list.
func (s *SGD) Step(params, grads []*Mat) {
	if len(params) != len(grads) {
		panic("nn: params/grads length mismatch")
	}
	if s.velocity == nil {
		s.velocity = make([]*Mat, len(params))
		for i, p := range params {
			s.velocity[i] = matrix.New[float64](p.Rows(), p.Cols())
		}
	}
	if len(s.velocity) != len(params) {
		panic("nn: SGD reused with a different parameter list")
	}
	for i, p := range params {
		g := grads[i]
		v := s.velocity[i]
		pd, gd, vd := p.Data(), g.Data(), v.Data()
		for j := range pd {
			gj := gd[j]
			if s.WeightDecay != 0 {
				gj += s.WeightDecay * pd[j]
			}
			vd[j] = s.Momentum*vd[j] - s.LR*gj
			pd[j] += vd[j]
		}
	}
}
