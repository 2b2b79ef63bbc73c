//go:build amd64 && !purego

package nn

// sigmoid32Kernel4 applies sigmoid32 to every element of xs in place,
// four lanes at a time; len(xs) must be a multiple of 4. lut is
// &sigLut[0], and xmin, xmax, and scale are sigLutMin, sigLutMax, and
// sigLutScale. See sigmoid32_amd64.s.
//
//go:noescape
//kml:hotpath
func sigmoid32Kernel4(xs []float32, lut *float32, xmin, xmax, scale float32)

// sigmoidRows applies sigmoid32 to every element in place: the SSE kernel
// takes whole groups of four and the scalar function the len%4 tail. The
// two produce the same bits for every non-NaN input, and NaN for NaN, so
// the result does not depend on where an element falls.
//
//kml:hotpath
func sigmoidRows(xs []float32) {
	n := len(xs) &^ 3
	if n > 0 {
		sigmoid32Kernel4(xs[:n], &sigLut[0], sigLutMin, sigLutMax, sigLutScale)
	}
	for i := n; i < len(xs); i++ {
		xs[i] = sigmoid32(xs[i])
	}
}
