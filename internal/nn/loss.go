package nn

import (
	"fmt"

	"repro/internal/kmath"
	"repro/internal/matrix"
)

// Loss couples a scalar objective with its gradient w.r.t. the network
// output. Implementations own their gradient buffer, reused across calls.
type Loss interface {
	// Name identifies the loss in String output and experiment logs.
	Name() string
	// Forward returns the mean loss over the batch.
	Forward(pred *Mat, target Target) float64
	// Backward returns ∂L/∂pred for the most recent Forward.
	Backward() *Mat
}

// Target is the supervision for one batch: its class labels.
type Target struct {
	Labels []int
}

// ClassTarget wraps integer class labels.
func ClassTarget(labels []int) Target { return Target{Labels: labels} }

// CrossEntropy is the fused softmax + negative-log-likelihood loss used by
// the paper's multi-class readahead classifier. Fusing the two keeps the
// gradient numerically stable: ∂L/∂logits = (softmax(logits) − onehot)/batch.
type CrossEntropy struct {
	probs *Mat
	grad  *Mat
	last  int
}

// NewCrossEntropy returns a cross-entropy loss.
func NewCrossEntropy() *CrossEntropy { return &CrossEntropy{} }

// Name implements Loss.
func (c *CrossEntropy) Name() string { return "cross-entropy" }

// Forward implements Loss. pred holds raw logits; target must carry Labels.
func (c *CrossEntropy) Forward(pred *Mat, target Target) float64 {
	labels := target.Labels
	if len(labels) != pred.Rows() {
		panic(fmt.Sprintf("nn: cross-entropy got %d labels for batch %d", len(labels), pred.Rows()))
	}
	if c.last != pred.Rows()*pred.Cols() {
		c.probs = matrix.New[float64](pred.Rows(), pred.Cols())
		c.grad = matrix.New[float64](pred.Rows(), pred.Cols())
		c.last = pred.Rows() * pred.Cols()
	}
	batch := pred.Rows()
	loss := 0.0
	inv := 1 / float64(batch)
	for i := 0; i < batch; i++ {
		if labels[i] < 0 || labels[i] >= pred.Cols() {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", labels[i], pred.Cols()))
		}
		p := kmath.Softmax(c.probs.Row(i), pred.Row(i))
		// Clamp to avoid log(0) when the network saturates.
		loss -= kmath.Log(kmath.Clamp(p[labels[i]], 1e-12, 1))
		g := c.grad.Row(i)
		copy(g, p)
		g[labels[i]] -= 1
		for j := range g {
			g[j] *= inv
		}
	}
	return loss * inv
}

// Backward implements Loss.
func (c *CrossEntropy) Backward() *Mat {
	if c.grad == nil {
		panic("nn: loss Backward before Forward")
	}
	return c.grad
}

// BCE is binary cross-entropy over logits (one output column), the loss
// LinnOS-style binary admit/reject models use; included to show KML covers
// that related-work case (§5).
type BCE struct {
	grad *Mat
	last int
}

// NewBCE returns a binary cross-entropy-with-logits loss.
func NewBCE() *BCE { return &BCE{} }

// Name implements Loss.
func (b *BCE) Name() string { return "bce" }

// Forward implements Loss. pred is batch×1 logits; target.Labels holds 0/1.
func (b *BCE) Forward(pred *Mat, target Target) float64 {
	labels := target.Labels
	if pred.Cols() != 1 {
		panic("nn: BCE needs a single output column")
	}
	if len(labels) != pred.Rows() {
		panic("nn: BCE label count mismatch")
	}
	if b.last != pred.Rows() {
		b.grad = matrix.New[float64](pred.Rows(), 1)
		b.last = pred.Rows()
	}
	inv := 1 / float64(pred.Rows())
	loss := 0.0
	for i := 0; i < pred.Rows(); i++ {
		z := pred.At(i, 0)
		y := float64(labels[i])
		if y != 0 && y != 1 {
			panic("nn: BCE labels must be 0 or 1")
		}
		// Stable: log(1+e^z) − y·z  ==  max(z,0) − y·z + log(1+e^−|z|)
		m := z
		if m < 0 {
			m = 0
		}
		loss += m - y*z + kmath.Log1p(kmath.Exp(-kmath.Abs(z)))
		b.grad.Set(i, 0, (kmath.Sigmoid(z)-y)*inv)
	}
	return loss * inv
}

// Backward implements Loss.
func (b *BCE) Backward() *Mat {
	if b.grad == nil {
		panic("nn: loss Backward before Forward")
	}
	return b.grad
}
