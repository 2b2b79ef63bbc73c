// Fixed-point matrix kernels. This file is the integer-only slice of the
// matrix package: it is what the in-kernel inference path executes, so it
// must hold to the kernelspace contract (no floats, no locks, no
// forbidden imports). The float↔fixed conversions live in matrix.go on
// the user-space side of the boundary.
//
//kml:kernelspace
package matrix

import "repro/internal/fixed"

// Fixed is a row-major dense matrix of Q16.16 fixed-point values, used for
// integer-only inference. Multiplication accumulates in int64 and shifts
// once per dot product, which preserves far more precision than per-term
// rounding.
type Fixed struct {
	rows, cols int
	data       []fixed.Q16
}

// NewFixed returns a zeroed rows×cols fixed-point matrix.
func NewFixed(rows, cols int) *Fixed {
	return &Fixed{rows: rows, cols: cols, data: make([]fixed.Q16, rows*cols)}
}

// Rows returns the number of rows.
func (f *Fixed) Rows() int { return f.rows }

// Cols returns the number of columns.
func (f *Fixed) Cols() int { return f.cols }

// Data returns the backing slice in row-major order.
func (f *Fixed) Data() []fixed.Q16 { return f.data }

// Row returns a view of row i.
func (f *Fixed) Row(i int) []fixed.Q16 { return f.data[i*f.cols : (i+1)*f.cols] }

// SliceRows returns a view of the first rows rows of f, sharing f's
// storage. Returned by value so batched inference can re-slice
// fixed-capacity scratch per call without allocating.
func (f *Fixed) SliceRows(rows int) Fixed {
	if rows < 0 || rows > f.rows {
		panic("matrix: Fixed.SliceRows out of range")
	}
	return Fixed{rows: rows, cols: f.cols, data: f.data[:rows*f.cols]}
}

// MulFixedInto computes dst = a·b in fixed point with int64 accumulation.
//
//kml:hotpath
func MulFixedInto(dst, a, b *Fixed) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic("matrix: MulFixedInto shape mismatch")
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		drow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for j := 0; j < b.cols; j++ {
			var acc int64
			for k, av := range arow {
				acc += int64(av) * int64(b.data[k*b.cols+j])
			}
			// One rounding shift for the whole dot product.
			if acc >= 0 {
				acc += 1 << (fixed.FracBits - 1)
			} else {
				acc -= 1 << (fixed.FracBits - 1)
			}
			acc >>= fixed.FracBits
			switch {
			case acc > int64(fixed.Max):
				drow[j] = fixed.Max
			case acc < int64(fixed.Min):
				drow[j] = fixed.Min
			default:
				drow[j] = fixed.Q16(acc)
			}
		}
	}
}

// AddRowVec adds the 1×cols vector v to every row of f in place.
//
//kml:hotpath
func (f *Fixed) AddRowVec(v *Fixed) {
	if v.rows != 1 || v.cols != f.cols {
		panic("matrix: Fixed.AddRowVec needs a 1xCols vector")
	}
	for i := 0; i < f.rows; i++ {
		row := f.Row(i)
		for j := range row {
			row[j] = row[j].Add(v.data[j])
		}
	}
}

// Apply sets every element to fn(element) in place.
//
//kml:hotpath
func (f *Fixed) Apply(fn func(fixed.Q16) fixed.Q16) {
	for i := range f.data {
		f.data[i] = fn(f.data[i])
	}
}

// ArgMaxRow returns the column index of the largest element in row i;
// the compare is strict, so the first of equal maxima wins. As in
// Dense.ArgMaxRow, the loop carries the best value and its index in
// registers and updates both by integer select, not by a jump on the
// compare.
//
//kml:hotpath
func (f *Fixed) ArgMaxRow(i int) int {
	row := f.Row(i)
	best, bv := 0, row[0]
	for j := 1; j < len(row); j++ {
		v := row[j]
		nv, nj := bv, best
		if v > bv {
			nv, nj = v, j
		}
		bv, best = nv, nj
	}
	return best
}
