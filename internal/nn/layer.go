// Package nn implements KML's neural-network core: modular layers and loss
// functions with forward/backward passes, chain networks, reverse-mode
// automatic differentiation, an SGD optimizer with momentum, the KML model
// file format used to move models between (simulated) user and kernel
// space, and a fixed-point compiled inference path.
//
// The design mirrors §2 of the paper: each differentiable component
// implements (i) construction/initialization, (ii) forward propagation for
// inference, and (iii) backward propagation for training — the three
// functions the paper says an extension must provide. Networks are chain
// computation graphs ("our current prototype supports only chain
// computation graphs"), traversed front-to-back for inference and
// back-to-front for gradients.
package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/kmath"
	"repro/internal/matrix"
)

// Mat is the matrix type the network trains with (double precision, the
// paper's highest-fidelity mode).
type Mat = matrix.Dense[float64]

// NewMat returns a zeroed rows×cols matrix of the network element type —
// a convenience for callers assembling training batches.
func NewMat(rows, cols int) *Mat { return matrix.New[float64](rows, cols) }

// Layer is one differentiable component of a chain network.
//
// Forward consumes a batch (rows = samples) and returns the layer output;
// the returned matrix is owned by the layer and reused across calls with
// the same batch size. Backward consumes ∂L/∂out and returns ∂L/∂in,
// accumulating parameter gradients internally; it must be called after
// Forward on the same batch.
type Layer interface {
	// Name identifies the layer type in serialized models and String output.
	Name() string
	// InDim and OutDim describe the feature dimensions.
	InDim() int
	OutDim() int
	// Forward computes the layer output for in (batch×InDim).
	Forward(in *Mat) *Mat
	// Backward computes ∂L/∂in from ∂L/∂out and records parameter grads.
	Backward(dOut *Mat) *Mat
	// Params returns the trainable parameter matrices (nil for stateless
	// layers); Grads returns the matching gradient accumulators.
	Params() []*Mat
	Grads() []*Mat
}

// Linear is a fully connected layer: out = in·W + b.
type Linear struct {
	in, out int
	w       *Mat // InDim × OutDim
	b       *Mat // 1 × OutDim
	dw, db  *Mat

	x       *Mat // cached input (aliased, not copied)
	yFull   *Mat // capacity-sized output buffer
	dInFull *Mat // capacity-sized gradient buffer
	yView   Mat  // current-batch view of yFull
	dInView Mat  // current-batch view of dInFull
	dwTmp   *Mat // scratch for the per-batch weight gradient
	dbTmp   *Mat // scratch for the per-batch bias gradient
	cap     int  // batch capacity the full buffers are sized for
}

// NewLinear returns a fully connected layer with Xavier/Glorot-uniform
// initialized weights and zero biases, using rng for reproducibility.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid Linear dims %dx%d", in, out))
	}
	l := &Linear{
		in: in, out: out,
		w:  matrix.New[float64](in, out),
		b:  matrix.New[float64](1, out),
		dw: matrix.New[float64](in, out),
		db: matrix.New[float64](1, out),
	}
	// Xavier-uniform: U(−√(6/(in+out)), +√(6/(in+out))).
	limit := kmath.Sqrt(6 / float64(in+out))
	data := l.w.Data()
	for i := range data {
		data[i] = (rng.Float64()*2 - 1) * limit
	}
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return "linear" }

// InDim implements Layer.
func (l *Linear) InDim() int { return l.in }

// OutDim implements Layer.
func (l *Linear) OutDim() int { return l.out }

// size points the layer's output and gradient views at batch rows of
// capacity-sized scratch, growing the scratch only when batch exceeds the
// high-water mark — batch sizes that vary below it (the serving path)
// never reallocate.
func (l *Linear) size(batch int) {
	if batch > l.cap {
		l.yFull = matrix.New[float64](batch, l.out)
		l.dInFull = matrix.New[float64](batch, l.in)
		if l.dwTmp == nil {
			l.dwTmp = matrix.New[float64](l.in, l.out)
			l.dbTmp = matrix.New[float64](1, l.out)
		}
		l.cap = batch
	}
	l.yView = l.yFull.SliceRows(batch)
	l.dInView = l.dInFull.SliceRows(batch)
}

// Forward implements Layer.
func (l *Linear) Forward(in *Mat) *Mat {
	if in.Cols() != l.in {
		panic(fmt.Sprintf("nn: linear got %d features, want %d", in.Cols(), l.in))
	}
	l.size(in.Rows())
	l.x = in
	matrix.MulInto(&l.yView, in, l.w)
	l.yView.AddRowVec(l.b)
	return &l.yView
}

// Backward implements Layer.
func (l *Linear) Backward(dOut *Mat) *Mat {
	if l.x == nil {
		panic("nn: Backward before Forward")
	}
	// dW += xᵀ·dOut ; accumulate so gradient steps can span micro-batches.
	matrix.TransMulInto(l.dwTmp, l.x, dOut)
	matrix.AddInto(l.dw, l.dw, l.dwTmp)
	// db += column sums of dOut.
	dOut.SumRowsInto(l.dbTmp)
	matrix.AddInto(l.db, l.db, l.dbTmp)
	// dIn = dOut·Wᵀ.
	matrix.MulTransInto(&l.dInView, dOut, l.w)
	return &l.dInView
}

// Params implements Layer.
func (l *Linear) Params() []*Mat { return []*Mat{l.w, l.b} }

// Grads implements Layer.
func (l *Linear) Grads() []*Mat { return []*Mat{l.dw, l.db} }

// activation is shared machinery for stateless elementwise layers.
type activation struct {
	name string
	fn   func(float64) float64
	// dfn computes the local derivative from (input, output).
	dfn func(x, y float64) float64

	x       *Mat
	yFull   *Mat
	dInFull *Mat
	yView   Mat
	dInView Mat
	capRows int
	cols    int
}

func (a *activation) Name() string { return a.name }

// InDim implements Layer; activations are dimension-preserving and
// polymorphic, reported as 0.
func (a *activation) InDim() int { return 0 }

// OutDim implements Layer.
func (a *activation) OutDim() int { return 0 }

func (a *activation) Forward(in *Mat) *Mat {
	if in.Rows() > a.capRows || in.Cols() != a.cols {
		a.yFull = matrix.New[float64](in.Rows(), in.Cols())
		a.dInFull = matrix.New[float64](in.Rows(), in.Cols())
		a.capRows = in.Rows()
		a.cols = in.Cols()
	}
	a.yView = a.yFull.SliceRows(in.Rows())
	a.dInView = a.dInFull.SliceRows(in.Rows())
	a.x = in
	xs, ys := in.Data(), a.yView.Data()
	for i, v := range xs {
		ys[i] = a.fn(v)
	}
	return &a.yView
}

func (a *activation) Backward(dOut *Mat) *Mat {
	if a.x == nil {
		panic("nn: Backward before Forward")
	}
	xs, ys, ds, out := a.x.Data(), a.yView.Data(), a.dInView.Data(), dOut.Data()
	for i := range ds {
		ds[i] = out[i] * a.dfn(xs[i], ys[i])
	}
	return &a.dInView
}

func (a *activation) Params() []*Mat { return nil }
func (a *activation) Grads() []*Mat  { return nil }

// NewSigmoid returns a logistic activation layer — the nonlinearity the
// paper's readahead model uses between its three linear layers.
func NewSigmoid() Layer {
	return &activation{
		name: "sigmoid",
		fn:   kmath.Sigmoid,
		dfn:  func(_, y float64) float64 { return y * (1 - y) },
	}
}

// NewReLU returns a rectified-linear activation layer.
func NewReLU() Layer {
	return &activation{
		name: "relu",
		fn: func(x float64) float64 {
			if x > 0 {
				return x
			}
			return 0
		},
		dfn: func(x, _ float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		},
	}
}

// NewTanh returns a hyperbolic-tangent activation layer.
func NewTanh() Layer {
	return &activation{
		name: "tanh",
		fn:   kmath.Tanh,
		dfn:  func(_, y float64) float64 { return 1 - y*y },
	}
}

// Softmax is an inference-time output layer turning logits into a
// probability distribution per row. For training, use the fused
// CrossEntropy loss instead (it differentiates through softmax itself),
// so Softmax deliberately has no Backward.
type Softmax struct {
	yFull   *Mat
	yView   Mat
	capRows int
	cols    int
}

// NewSoftmax returns a softmax output layer.
func NewSoftmax() *Softmax { return &Softmax{} }

// Name implements Layer.
func (s *Softmax) Name() string { return "softmax" }

// InDim implements Layer.
func (s *Softmax) InDim() int { return 0 }

// OutDim implements Layer.
func (s *Softmax) OutDim() int { return 0 }

// Forward implements Layer.
func (s *Softmax) Forward(in *Mat) *Mat {
	if in.Rows() > s.capRows || in.Cols() != s.cols {
		s.yFull = matrix.New[float64](in.Rows(), in.Cols())
		s.capRows = in.Rows()
		s.cols = in.Cols()
	}
	s.yView = s.yFull.SliceRows(in.Rows())
	for i := 0; i < in.Rows(); i++ {
		kmath.Softmax(s.yView.Row(i), in.Row(i))
	}
	return &s.yView
}

// Backward implements Layer; softmax is inference-only in KML networks.
func (s *Softmax) Backward(*Mat) *Mat {
	panic("nn: Softmax has no Backward; train with the fused CrossEntropy loss")
}

// Params implements Layer.
func (s *Softmax) Params() []*Mat { return nil }

// Grads implements Layer.
func (s *Softmax) Grads() []*Mat { return nil }
