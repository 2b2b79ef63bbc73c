//go:build amd64 && !purego

package matrix

// mulBias32Kernel16 computes dst = a·b + bias (shapes rows×k · k×n + 1×n,
// n ≤ 16) over raw row-major slices, two rows per pass; see
// mulbias32_amd64.s for the lane and padding contract.
//
//go:noescape
//kml:hotpath
func mulBias32Kernel16(dst, a, b, bias []float32, rows, k, n int)

// mulBias32Kernel4 is mulBias32Kernel16 for n ≤ 4: one XMM accumulator
// per row, four rows per pass.
//
//go:noescape
//kml:hotpath
func mulBias32Kernel4(dst, a, b, bias []float32, rows, k, n int)

// MulBias32 is MulBiasInto specialized to float32. When the output width
// fits a vector kernel (n ≤ 16) and dst, b, and bias carry the spare
// backing capacity its over-width loads and stores require (allocated via
// NewPadded, as the compiled float32 network does), output rows are
// computed in XMM accumulators with no intermediate stores — the
// throughput floor of batched inference (≈345 multiply-adds per readahead
// sample), and where the batch speedup comes from on amd64. Outputs up to
// 16 wide run two rows per pass in four accumulators each; outputs up to
// 4 wide (the readahead model's class layer) run four rows per pass in
// one accumulator each, so they do not pay for 16 lanes. Other shapes
// fall back to the portable loop. Every path evaluates every output
// element with the identical IEEE multiply/add sequence in k order, so
// results are bitwise-equal regardless of path or build.
//
//kml:hotpath
func MulBias32(dst, a, b, bias *Dense[float32]) {
	checkMulBias(dst, a, b, bias)
	n := b.cols
	if n <= 16 && spare(dst) >= 16 && spare(b) >= 16 && spare(bias) >= 16 {
		if n <= 4 {
			mulBias32Kernel4(dst.data, a.data, b.data, bias.data, a.rows, a.cols, n)
		} else {
			mulBias32Kernel16(dst.data, a.data, b.data, bias.data, a.rows, a.cols, n)
		}
		return
	}
	MulBiasInto(dst, a, b, bias)
}

// spare reports the backing capacity beyond the matrix's own elements —
// the padding headroom the vector kernel's over-width accesses need.
//
//kml:hotpath
func spare[T Float](m *Dense[T]) int {
	return cap(m.data) - len(m.data)
}
