// Package matrix implements the dense matrix types and linear-algebra
// routines KML's neural networks are built on.
//
// The paper (§3.1) states that "KML supports integer, floating-point, and
// double precision matrices". This package provides:
//
//   - Dense[T] — a generic row-major dense matrix over float32 or float64,
//     used for training and floating-point inference, and
//   - Fixed — a Q16.16 fixed-point matrix (package fixed) with int64
//     accumulation, used for integer-only inference in FPU-less contexts.
//
// All hot-path operations offer *Into variants that write into caller-owned
// destinations so inference can run without allocating (§3.1: memory must be
// carefully managed inside the OS).
package matrix

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fixed"
)

// Float constrains the element types of a Dense matrix.
type Float interface {
	~float32 | ~float64
}

// Dense is a row-major dense matrix.
type Dense[T Float] struct {
	rows, cols int
	data       []T
}

// New returns a zeroed rows×cols matrix.
func New[T Float](rows, cols int) *Dense[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	return &Dense[T]{rows: rows, cols: cols, data: make([]T, rows*cols)}
}

// NewPadded returns a zeroed rows×cols matrix whose backing array carries
// at least pad spare elements of capacity beyond the matrix itself. The
// spare region lets vectorized kernels (MulBias32) read and write full
// SIMD lanes past the final row without touching unowned memory; the
// matrix's own shape and contents are identical to New's.
func NewPadded[T Float](rows, cols, pad int) *Dense[T] {
	if rows < 0 || cols < 0 || pad < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d+%d", rows, cols, pad))
	}
	return &Dense[T]{rows: rows, cols: cols, data: make([]T, rows*cols, rows*cols+pad)}
}

// Rows returns the number of rows.
func (m *Dense[T]) Rows() int { return m.rows }

// Cols returns the number of columns.
//
//kml:hotpath
func (m *Dense[T]) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense[T]) At(i, j int) T { return m.data[i*m.cols+j] }

// Set stores v at row i, column j.
func (m *Dense[T]) Set(i, j int, v T) { m.data[i*m.cols+j] = v }

// Data returns the backing slice in row-major order. Mutating it mutates
// the matrix; it is exposed for zero-copy serialization and kernels.
//
//kml:hotpath
func (m *Dense[T]) Data() []T { return m.data }

// Row returns a view of row i (aliasing the matrix storage).
//
//kml:hotpath
func (m *Dense[T]) Row(i int) []T { return m.data[i*m.cols : (i+1)*m.cols] }

// SliceRows returns a view of the first rows rows of m, sharing m's
// storage. The view is returned by value so callers can keep it in a
// reusable field (or on the stack) and re-slice per call without
// allocating — the mechanism batched inference uses to run varying batch
// sizes over fixed-capacity scratch.
//
//kml:hotpath
func (m *Dense[T]) SliceRows(rows int) Dense[T] {
	if rows < 0 || rows > m.rows {
		panic(fmt.Sprintf("matrix: SliceRows %d of %dx%d", rows, m.rows, m.cols))
	}
	return Dense[T]{rows: rows, cols: m.cols, data: m.data[:rows*m.cols]}
}

// Zero sets every element of m to 0.
func (m *Dense[T]) Zero() {
	var z T
	for i := range m.data {
		m.data[i] = z
	}
}

func (m *Dense[T]) mustSameShape(o *Dense[T]) {
	if m.rows != o.rows || m.cols != o.cols {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
}

// ErrShape reports incompatible matrix dimensions from checked operations.
var ErrShape = errors.New("matrix: incompatible shapes")

// MulInto computes dst = a·b. dst must be a.rows × b.cols and must not
// alias a or b. It performs no allocation.
func MulInto[T Float](dst, a, b *Dense[T]) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("matrix: MulInto shapes %dx%d · %dx%d -> %dx%d",
			a.rows, a.cols, b.rows, b.cols, dst.rows, dst.cols))
	}
	// ikj loop order: the inner loop streams rows of b and dst, which is
	// cache-friendly for row-major storage.
	for i := 0; i < a.rows; i++ {
		drow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for x := range drow {
			drow[x] = 0
		}
		arow := a.data[i*a.cols : (i+1)*a.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MulBiasInto computes dst = a·b + bias (bias a 1×b.cols row vector,
// broadcast over rows) in a single fused pass: each destination row is
// initialized from the bias and accumulated in k-order, so the output is
// traversed once instead of twice (MulInto + AddRowVec). dst must be
// a.rows × b.cols and must not alias a or b. It performs no allocation.
//
// This is the batched-inference reference kernel. Each output element is
// evaluated as ((bias + a₀·b₀) + a₁·b₁) + … — one IEEE multiply and add
// per k step, in k order, independent of the row count. MulBias32 (the
// float32 fast path, vectorized on amd64) follows the identical per-
// element order, so batch-of-N output is bitwise-equal to N batch-of-1
// calls on every build.
//
//kml:hotpath
func MulBiasInto[T Float](dst, a, b, bias *Dense[T]) {
	checkMulBias(dst, a, b, bias)
	n := b.cols
	for i := 0; i < a.rows; i++ {
		drow := dst.data[i*n : (i+1)*n]
		copy(drow, bias.data)
		arow := a.data[i*a.cols : (i+1)*a.cols]
		for k, av := range arow {
			brow := b.data[k*n : (k+1)*n]
			brow = brow[:len(drow)]
			for j := range drow {
				drow[j] += T(av * brow[j])
			}
		}
	}
}

// checkMulBias validates the fused-kernel shapes. It runs on the hot
// path (the comparisons are a handful of integer tests); the formatting
// allocation sits inside the panic argument, which is the cold misuse
// branch noalloc exempts.
//
//kml:hotpath
func checkMulBias[T Float](dst, a, b, bias *Dense[T]) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols ||
		bias.rows != 1 || bias.cols != b.cols {
		panic(fmt.Sprintf("matrix: MulBiasInto shapes %dx%d · %dx%d + 1x%d -> %dx%d",
			a.rows, a.cols, b.rows, b.cols, bias.cols, dst.rows, dst.cols))
	}
}

// MulTransInto computes dst = a·bᵀ without materializing bᵀ.
// dst must be a.rows × b.rows.
func MulTransInto[T Float](dst, a, b *Dense[T]) {
	if a.cols != b.cols || dst.rows != a.rows || dst.cols != b.rows {
		panic("matrix: MulTransInto shape mismatch")
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		drow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for j := 0; j < b.rows; j++ {
			brow := b.data[j*b.cols : (j+1)*b.cols]
			var sum T
			for k, av := range arow {
				sum += av * brow[k]
			}
			drow[j] = sum
		}
	}
}

// TransMulInto computes dst = aᵀ·b without materializing aᵀ.
// dst must be a.cols × b.cols.
func TransMulInto[T Float](dst, a, b *Dense[T]) {
	if a.rows != b.rows || dst.rows != a.cols || dst.cols != b.cols {
		panic("matrix: TransMulInto shape mismatch")
	}
	dst.Zero()
	for k := 0; k < a.rows; k++ {
		arow := a.data[k*a.cols : (k+1)*a.cols]
		brow := b.data[k*b.cols : (k+1)*b.cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.data[i*dst.cols : (i+1)*dst.cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// AddInto computes dst = a + b elementwise; all three must share a shape
// (dst may alias a or b).
func AddInto[T Float](dst, a, b *Dense[T]) {
	a.mustSameShape(b)
	a.mustSameShape(dst)
	for i := range dst.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
}

// AddRowVec adds the 1×cols row vector v to every row of m in place
// (broadcast add, used for biases).
func (m *Dense[T]) AddRowVec(v *Dense[T]) {
	if v.rows != 1 || v.cols != m.cols {
		panic("matrix: AddRowVec needs a 1xCols vector")
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v.data[j]
		}
	}
}

// SumRowsInto writes the column-wise sum of m (a 1×cols vector) into dst.
func (m *Dense[T]) SumRowsInto(dst *Dense[T]) {
	if dst.rows != 1 || dst.cols != m.cols {
		panic("matrix: SumRowsInto needs a 1xCols destination")
	}
	dst.Zero()
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			dst.data[j] += row[j]
		}
	}
}

// ArgMaxRow returns the column index of the largest element in row i,
// which must have a column. The compare is strict, so the first of equal
// maxima wins; a NaN is never chosen, and a NaN in column 0 makes every
// compare false, so the row reads as class 0.
//
// The loop carries the best value as the bits of its exact float64
// widening, and both it and the index change by integer select (CMOV on
// amd64), not by a jump on the compare: a served row's classes are close
// to random, and a mispredicted jump per column cost more than the
// compare itself. The candidate's bits are taken before the compare;
// taken inside the branch, they keep the compiler from selecting.
//
//kml:hotpath
func (m *Dense[T]) ArgMaxRow(i int) int {
	row := m.Row(i)
	best, bits := 0, math.Float64bits(float64(row[0]))
	for j := 1; j < len(row); j++ {
		v := float64(row[j])
		vb := math.Float64bits(v)
		nb, nj := bits, best
		if v > math.Float64frombits(bits) {
			nb, nj = vb, j
		}
		bits, best = nb, nj
	}
	return best
}

// String renders a small matrix for debugging.
func (m *Dense[T]) String() string {
	s := fmt.Sprintf("Dense %dx%d [", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", float64(m.At(i, j)))
		}
	}
	return s + "]"
}

// FixedFrom quantizes a float matrix to Q16.16. It is a user→kernel
// boundary conversion: quantization happens at deployment time, so it
// lives here rather than in the kernelspace fixedmat.go.
func FixedFrom[T Float](m *Dense[T]) *Fixed {
	f := NewFixed(m.rows, m.cols)
	data := f.Data()
	for i, v := range m.data {
		data[i] = fixed.FromFloat(float64(v))
	}
	return f
}
