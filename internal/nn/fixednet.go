// Fixed-point inference core. This file is the part of the nn package
// that executes in FPU-less (kernel) contexts, so it carries the
// kernelspace contract: integer arithmetic only, no allocation on the
// inference path, no forbidden imports. Quantization, compilation from
// the float network, and batch-scratch allocation live in fixedcompile.go
// on the user-space side.
//
//kml:kernelspace
package nn

import (
	"repro/internal/fixed"
	"repro/internal/matrix"
)

// fixedOp is one compiled layer of a FixedNetwork.
type fixedOp struct {
	kind uint8
	w    *matrix.Fixed // linear only
	b    *matrix.Fixed
	out  *matrix.Fixed // batchCap × out scratch (linear only)
	view matrix.Fixed  // rows-row view of out for the current call
}

// FixedNetwork is a network compiled to Q16.16 fixed-point arithmetic for
// inference in FPU-less contexts (§3.1: "Another way to perform FP
// operations in a kernel is to use a fixed-point representation"). It is
// inference-only: training always happens in floating point, then the model
// is quantized — the same train-in-user-space / deploy-in-kernel split the
// paper's readahead model uses.
type FixedNetwork struct {
	ops      []fixedOp
	inDim    int
	inBuf    *matrix.Fixed // batchCap × inDim input scratch
	inView   matrix.Fixed
	qBuf     []fixed.Q16 // user-space quantization scratch for InferBatch
	batchCap int
}

// InDim returns the input feature dimension.
func (fn *FixedNetwork) InDim() int { return fn.inDim }

// OutDim returns the output dimension (the class count), taken from the
// last linear op's weight columns.
func (fn *FixedNetwork) OutDim() int {
	for i := len(fn.ops) - 1; i >= 0; i-- {
		if fn.ops[i].w != nil {
			return fn.ops[i].w.Cols()
		}
	}
	return 0
}

// PredictQ runs single-sample inference on pre-quantized features and
// returns the argmax output index. It performs no allocation and no
// floating-point arithmetic.
//
//kml:hotpath
func (fn *FixedNetwork) PredictQ(features []fixed.Q16) int {
	if len(features) != fn.inDim {
		panic("nn: fixed forward feature length mismatch")
	}
	fn.inView = fn.inBuf.SliceRows(1)
	copy(fn.inView.Row(0), features)
	out := fn.forwardQ(1)
	return out.ArgMaxRow(0)
}

// InferBatchQ classifies rows pre-quantized samples (row-major
// rows×InDim) in one batched forward pass, writing the predicted class of
// sample r to classes[r]. The kernelspace side never allocates: rows must
// not exceed the scratch capacity reserved by EnsureBatch (user space),
// or InferBatchQ panics. Fixed-point arithmetic is exact per element, so
// the result for each row is bitwise-identical to a PredictQ call on that
// row alone.
//
//kml:hotpath
func (fn *FixedNetwork) InferBatchQ(features []fixed.Q16, rows int, classes []int) {
	if rows <= 0 || len(features) != rows*fn.inDim {
		panic("nn: InferBatchQ feature length mismatch")
	}
	if len(classes) < rows {
		panic("nn: InferBatchQ classes slice too short")
	}
	if rows > fn.batchCap {
		panic("nn: InferBatchQ rows exceed batch capacity; call EnsureBatch first")
	}
	fn.inView = fn.inBuf.SliceRows(rows)
	copy(fn.inView.Data(), features)
	out := fn.forwardQ(rows)
	for r := 0; r < rows; r++ {
		classes[r] = out.ArgMaxRow(r)
	}
}

// forwardQ runs the compiled chain over the first rows rows of the input
// scratch, slicing row views of each linear layer's capacity scratch.
//
//kml:hotpath
func (fn *FixedNetwork) forwardQ(rows int) *matrix.Fixed {
	cur := &fn.inView
	for i := range fn.ops {
		op := &fn.ops[i]
		switch op.kind {
		case kindLinear:
			op.view = op.out.SliceRows(rows)
			matrix.MulFixedInto(&op.view, cur, op.w)
			op.view.AddRowVec(op.b)
			cur = &op.view
		case kindSigmoid:
			cur.Apply(fixed.Q16.Sigmoid)
		case kindReLU:
			cur.Apply(fixed.Q16.ReLU)
		case kindTanh:
			cur.Apply(fixed.Q16.Tanh)
		}
	}
	return cur
}

// ParamBytes returns the bytes held by quantized parameters (int32), for
// comparison against the float model's footprint.
func (fn *FixedNetwork) ParamBytes() int64 {
	var total int64
	for i := range fn.ops {
		op := &fn.ops[i]
		if op.w != nil {
			total += int64(op.w.Rows()*op.w.Cols()+op.b.Cols()) * 4
		}
	}
	return total
}
