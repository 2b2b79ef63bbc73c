package nn

import (
	"fmt"

	"repro/internal/fixed"
	"repro/internal/matrix"
)

// CompileFixed quantizes a trained network to Q16.16. A trailing Softmax is
// compiled to the identity: softmax is strictly monotone per row, so the
// argmax classification decision is unchanged and the exp evaluations are
// saved — a standard integer-inference simplification.
func CompileFixed(n *Network) (*FixedNetwork, error) {
	fn := &FixedNetwork{inDim: n.InDim()}
	for _, l := range n.layers {
		switch t := l.(type) {
		case *Linear:
			op := fixedOp{
				kind: kindLinear,
				w:    matrix.FixedFrom(t.w),
				b:    matrix.FixedFrom(t.b),
			}
			fn.ops = append(fn.ops, op)
		case *Softmax:
			// Identity under argmax; skip.
		case *activation:
			var kind uint8
			switch t.name {
			case "sigmoid":
				kind = kindSigmoid
			case "relu":
				kind = kindReLU
			case "tanh":
				kind = kindTanh
			default:
				return nil, fmt.Errorf("nn: cannot compile activation %q to fixed point", t.name)
			}
			fn.ops = append(fn.ops, fixedOp{kind: kind})
		default:
			return nil, fmt.Errorf("nn: cannot compile layer %q to fixed point", l.Name())
		}
	}
	if len(fn.ops) == 0 {
		return nil, fmt.Errorf("nn: nothing to compile")
	}
	fn.EnsureBatch(1)
	return fn, nil
}

// EnsureBatch reserves batch scratch for at least rows samples. It is the
// user-space allocation half of the batched fixed path: the kernelspace
// InferBatchQ never allocates, so capacity must be reserved here before
// batches of that size are inferred.
func (fn *FixedNetwork) EnsureBatch(rows int) {
	if rows <= fn.batchCap {
		return
	}
	fn.inBuf = matrix.NewFixed(rows, fn.inDim)
	fn.qBuf = make([]fixed.Q16, rows*fn.inDim)
	for i := range fn.ops {
		op := &fn.ops[i]
		if op.kind == kindLinear {
			op.out = matrix.NewFixed(rows, op.w.Cols())
		}
	}
	fn.batchCap = rows
}

// Predict quantizes float features and returns the argmax output index.
// It is the user↔kernel boundary of the fixed network: quantizing float
// inputs belongs on the user-space side, so it lives here rather than in
// the kernelspace fixednet.go.
func (fn *FixedNetwork) Predict(features []float64) int {
	if len(features) != fn.inDim {
		panic(fmt.Sprintf("nn: fixed predict got %d features, want %d", len(features), fn.inDim))
	}
	buf := fn.qBuf[:fn.inDim]
	for i, f := range features {
		buf[i] = fixed.FromFloat(f)
	}
	return fn.PredictQ(buf)
}

// InferBatch quantizes rows float64 samples (row-major rows×InDim) and
// classifies them in one batched kernel pass, writing classes[r] for each
// sample. Scratch grows on demand; at steady state the call is
// allocation-free.
func (fn *FixedNetwork) InferBatch(features []float64, rows int, classes []int) {
	if rows <= 0 || len(features) != rows*fn.inDim {
		panic("nn: fixed InferBatch feature length mismatch")
	}
	fn.EnsureBatch(rows)
	buf := fn.qBuf[:len(features)] // lets the loop drop its bounds check
	for i, f := range features {
		buf[i] = fixed.FromFloat(f)
	}
	fn.InferBatchQ(buf, rows, classes)
}
