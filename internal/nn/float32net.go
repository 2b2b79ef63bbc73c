package nn

import (
	"fmt"

	"repro/internal/kmath"
	"repro/internal/matrix"
)

// Float32Network is a network compiled to single-precision inference —
// the middle point of the paper's three matrix precisions (§3.1: "KML
// supports integer, floating-point, and double precision matrices").
// Training always happens in float64; compiling to float32 halves the
// deployed model's memory at negligible accuracy cost, and the
// BenchmarkAblation_InferencePrecision harness quantifies the trade
// against the Q16.16 integer path.
//
// The compiled network is batched: every linear layer owns capacity-sized
// scratch that a per-call row view slices into, so Predict is just
// InferBatch at rows = 1 and both paths execute the identical kernel
// (matrix.MulBiasInto + the table-driven activations below). That shared
// kernel is what makes batch-of-N output bitwise-equal to N single-sample
// calls — the per-element accumulation order never depends on the row
// count.
type float32Op struct {
	kind uint8
	w    *matrix.Dense[float32]
	b    *matrix.Dense[float32]
}

// float32Scratch is one linear op's output buffer.
type float32Scratch struct {
	out  *matrix.Dense[float32] // batchCap × out, padded
	view matrix.Dense[float32]  // rows-row view of out for the current call
}

// Float32Network executes a single-precision chain network. It is two
// things with different lifetimes. The ops — layer kinds and padded
// parameter matrices — are written by CompileFloat32 and only ever read
// afterwards (the vector kernel reads past the end of w and b into their
// padding; the only memory it writes past a matrix's end is the
// scratch's), so any number of goroutines may share them. The scratch is
// written by every call and belongs to one goroutine; Fork makes a network
// that shares the first and owns a fresh second.
type Float32Network struct {
	ops      []float32Op      // immutable after compile; shared across Forks
	scratch  []float32Scratch // by op index (linear ops only); private
	inDim    int
	inBuf    *matrix.Dense[float32] // batchCap × inDim input scratch
	inView   matrix.Dense[float32]
	batchCap int
}

// kernelPad is the spare backing capacity (in elements) given to the
// matrices the fused multiply-bias kernel touches, so the amd64 SSE path
// can run full 16-lane loads and stores past the final row.
const kernelPad = 16

const (
	sigLutSize = 2048
	sigLutMin  = float32(-16)
	sigLutMax  = float32(16)
)

// sigLut is the sigmoid lookup table. kmath.Sigmoid evaluates a 12-term
// Taylor series per call (~27 ns), which dominates single-sample inference
// cost: the readahead model evaluates 30 sigmoids against ~345
// multiply-adds. The compiled float32 path instead interpolates a
// 2048-interval table over [-16, 16] built from kmath.Sigmoid at init. Max
// interpolation error is ~3e-6 — below float32 resolution around 0.5 — and
// outside the range the function is flat to 1e-7, so the table clamps to
// its end values. Both Predict and InferBatch use the same table,
// preserving batch/single bitwise equality.
//
// On amd64 sigmoidRows evaluates the table four lanes at a time
// (sigmoid32_amd64.s), each lane the same float32 operations as
// sigmoid32. The vector kernel clamps instead of branching, so a lane at
// sigLutMax reads the pair (sigLutSize, sigLutSize+1); the last entry
// repeats the one before it, so that pair interpolates to sigLut[sigLutSize].
var (
	sigLut      [sigLutSize + 2]float32
	sigLutScale = float32(sigLutSize) / (sigLutMax - sigLutMin)
)

func init() {
	for i := 0; i <= sigLutSize; i++ {
		x := float64(sigLutMin) + float64(i)*float64(sigLutMax-sigLutMin)/sigLutSize
		sigLut[i] = float32(kmath.Sigmoid(x))
	}
	sigLut[sigLutSize+1] = sigLut[sigLutSize]
}

// sigmoid32 evaluates the logistic function by linear interpolation into
// the compiled table. The explicit float32 conversions round each product
// on its own, which keeps a compiler from fusing it with the next add or
// subtract (FMA, as arm64 would): every build then computes the same bits
// as the amd64 vector kernel.
//
//kml:hotpath
func sigmoid32(x float32) float32 {
	if x <= sigLutMin {
		return sigLut[0]
	}
	p := float32((x - sigLutMin) * sigLutScale)
	if p >= sigLutSize {
		// x ≥ sigLutMax, or the largest float32 below it, whose offset
		// from sigLutMin rounds up to the full range.
		return sigLut[sigLutSize]
	}
	i := int(p)
	f := p - float32(i)
	// The checks above bound i to [0, sigLutSize) (a NaN x gives a NaN f,
	// whatever i is); the mask is a semantic no-op that lets the compiler
	// drop both bounds checks.
	i &= sigLutSize - 1
	lo := sigLut[i]
	return lo + float32(f*(sigLut[i+1]-lo))
}

// tanh32 uses the identity tanh(x) = 2σ(2x) − 1 over the same table; the
// conversion keeps 2σ − 1 unfused, as in sigmoid32.
//
//kml:hotpath
func tanh32(x float32) float32 {
	return float32(2*sigmoid32(2*x)) - 1
}

// sigmoidRows (sigmoid32_amd64.go, sigmoid32_generic.go), reluRows, and
// tanhRows apply an activation elementwise in place. They are named
// functions (not closures) so the noalloc analyzer can see the whole hot
// path.
//
//kml:hotpath
func reluRows(xs []float32) {
	for i, v := range xs {
		if v < 0 {
			xs[i] = 0
		}
	}
}

//kml:hotpath
func tanhRows(xs []float32) {
	for i, v := range xs {
		xs[i] = tanh32(v)
	}
}

// CompileFloat32 converts a trained network to single-precision inference.
// A trailing Softmax compiles to the identity (monotone under argmax),
// as in CompileFixed.
func CompileFloat32(n *Network) (*Float32Network, error) {
	fn := &Float32Network{inDim: n.InDim()}
	for _, l := range n.layers {
		switch t := l.(type) {
		case *Linear:
			fn.ops = append(fn.ops, float32Op{
				kind: kindLinear,
				w:    toFloat32(t.w),
				b:    toFloat32(t.b),
			})
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
				return nil, fmt.Errorf("nn: cannot compile activation %q to float32", t.name)
			}
			fn.ops = append(fn.ops, float32Op{kind: kind})
		default:
			return nil, fmt.Errorf("nn: cannot compile layer %q to float32", l.Name())
		}
	}
	if fn.OutDim() == 0 {
		return nil, fmt.Errorf("nn: nothing to compile: no linear layer")
	}
	return fn.Fork(), nil
}

// Fork returns a network that shares fn's parameters and owns its own
// scratch, sized for one row: the once-per-model compile is paid by fn,
// and each goroutine that wants to infer concurrently pays only for the
// buffers its calls write. A fork predicts bitwise-identically to fn.
func (fn *Float32Network) Fork() *Float32Network {
	f := &Float32Network{ops: fn.ops, inDim: fn.inDim, scratch: make([]float32Scratch, len(fn.ops))}
	f.EnsureBatch(1)
	return f
}

// toFloat32 narrows a float64 parameter matrix, allocating kernelPad spare
// elements of backing capacity so MulBias32 can take its vector fast path
// (see matrix.NewPadded).
func toFloat32(m *Mat) *matrix.Dense[float32] {
	out := matrix.NewPadded[float32](m.Rows(), m.Cols(), kernelPad)
	src, dst := m.Data(), out.Data()
	for i, v := range src {
		dst[i] = float32(v)
	}
	return out
}

// InDim returns the input feature dimension.
func (fn *Float32Network) InDim() int { return fn.inDim }

// OutDim returns the output dimension (the class count), taken from the
// last linear op's weight columns.
func (fn *Float32Network) OutDim() int {
	for i := len(fn.ops) - 1; i >= 0; i-- {
		if fn.ops[i].w != nil {
			return fn.ops[i].w.Cols()
		}
	}
	return 0
}

// EnsureBatch grows the network's batch scratch to hold at least rows
// samples. InferBatch grows on demand; calling EnsureBatch up front makes
// the very first batched call allocation-free.
//
// Coldpath: this is the amortized growth branch — it allocates by design
// and runs only when rows exceeds the scratch high-water mark, never at
// steady state (TestBatchInferAllocFree pins that).
//
//kml:coldpath
func (fn *Float32Network) EnsureBatch(rows int) {
	if rows <= fn.batchCap {
		return
	}
	fn.inBuf = matrix.New[float32](rows, fn.inDim)
	for i, op := range fn.ops {
		if op.kind == kindLinear {
			fn.scratch[i].out = matrix.NewPadded[float32](rows, op.w.Cols(), kernelPad)
		}
	}
	fn.batchCap = rows
}

// Predict runs single-sample inference on float64 features and returns
// the argmax output index. It performs no allocation. It is exactly
// InferBatch at one row: the two paths share the fused kernel, so their
// outputs are bitwise-identical by construction.
//
//kml:hotpath
func (fn *Float32Network) Predict(features []float64) int {
	if len(features) != fn.inDim {
		panic(fmt.Sprintf("nn: float32 predict got %d features, want %d", len(features), fn.inDim))
	}
	fn.inView = fn.inBuf.SliceRows(1)
	buf := fn.inView.Row(0)
	for i, f := range features {
		buf[i] = float32(f)
	}
	out := fn.forward(1)
	return out.ArgMaxRow(0)
}

// InferBatch classifies rows samples in one fused forward pass over
// preallocated scratch: features holds rows×InDim float64 values in
// row-major order, and the predicted class of sample r is written to
// classes[r]. It allocates only when rows exceeds the scratch high-water
// mark (see EnsureBatch); at steady state it is allocation-free.
//
//kml:hotpath
func (fn *Float32Network) InferBatch(features []float64, rows int, classes []int) {
	if rows <= 0 || len(features) != rows*fn.inDim {
		panic("nn: InferBatch feature length mismatch")
	}
	if len(classes) < rows {
		panic("nn: InferBatch classes slice too short")
	}
	if rows > fn.batchCap {
		fn.EnsureBatch(rows)
	}
	fn.inView = fn.inBuf.SliceRows(rows)
	buf := fn.inView.Data()
	for i, f := range features {
		buf[i] = float32(f)
	}
	out := fn.forward(rows)
	for r := 0; r < rows; r++ {
		classes[r] = out.ArgMaxRow(r)
	}
}

// forward runs the compiled chain over the first rows rows of the input
// scratch. Linear layers slice a row view of their capacity scratch and
// run the fused multiply-bias kernel; activations are applied in place by
// the table-driven routines above.
//
//kml:hotpath
func (fn *Float32Network) forward(rows int) *matrix.Dense[float32] {
	cur := &fn.inView
	for i := range fn.ops {
		op := &fn.ops[i]
		switch op.kind {
		case kindLinear:
			sc := &fn.scratch[i]
			sc.view = sc.out.SliceRows(rows)
			matrix.MulBias32(&sc.view, cur, op.w, op.b)
			cur = &sc.view
		case kindSigmoid:
			sigmoidRows(cur.Data())
		case kindReLU:
			reluRows(cur.Data())
		case kindTanh:
			tanhRows(cur.Data())
		}
	}
	return cur
}

// ParamBytes returns the bytes held by single-precision parameters.
func (fn *Float32Network) ParamBytes() int64 {
	var total int64
	for i := range fn.ops {
		op := &fn.ops[i]
		if op.w != nil {
			total += int64(op.w.Rows()*op.w.Cols()+op.b.Cols()) * 4
		}
	}
	return total
}
