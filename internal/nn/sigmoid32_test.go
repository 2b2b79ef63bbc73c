package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkSigmoidRows runs sigmoidRows over a copy of xs and compares every
// element with sigmoid32: bitwise-equal for non-NaN input, NaN for NaN.
func checkSigmoidRows(t *testing.T, xs []float32) {
	t.Helper()
	got := append([]float32(nil), xs...)
	sigmoidRows(got)
	for i, x := range xs {
		if x != x {
			if got[i] == got[i] {
				t.Fatalf("len %d element %d: sigmoid(NaN) = %v, want NaN", len(xs), i, got[i])
			}
			continue
		}
		if want := sigmoid32(x); math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("len %d element %d: sigmoid(%v [%#08x]) = %v [%#08x], scalar %v [%#08x]",
				len(xs), i, x, math.Float32bits(x), got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
		}
	}
}

// TestSigmoidRowsMatchesScalar pins the vector sigmoid (amd64) to the
// scalar sigmoid32 it replaces: every length from 0 to 9 (whole groups of
// four plus every tail), the table's edges in every lane position, and a
// sweep of float32 bit patterns. On other builds sigmoidRows is the scalar
// loop and the test is trivially green.
func TestSigmoidRowsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for n := 0; n <= 9; n++ {
		for trial := 0; trial < 50; trial++ {
			xs := make([]float32, n)
			for i := range xs {
				xs[i] = float32(rng.NormFloat64() * 12)
			}
			checkSigmoidRows(t, xs)
		}
	}

	inf := float32(math.Inf(1))
	edges := []float32{
		0, float32(math.Copysign(0, -1)),
		sigLutMin, sigLutMax,
		math.Nextafter32(sigLutMin, 0), math.Nextafter32(sigLutMin, -inf),
		math.Nextafter32(sigLutMax, 0), math.Nextafter32(sigLutMax, inf),
		inf, -inf, float32(math.NaN()), math.Float32frombits(0xffc00001),
		math.Float32frombits(1), math.Float32frombits(0x80000001),
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
		math.MaxFloat32, -math.MaxFloat32,
	}
	for _, e := range edges {
		for n := 1; n <= 9; n++ {
			for pos := 0; pos < n; pos++ {
				xs := make([]float32, n)
				for i := range xs {
					xs[i] = 0.5
				}
				xs[pos] = e
				checkSigmoidRows(t, xs)
			}
		}
	}
	checkSigmoidRows(t, edges)

	// Every 251st bit pattern: ≈17 M values across all exponents, both
	// signs, the subnormals, infinities and NaNs.
	buf := make([]float32, 0, 1024)
	for bits := uint64(0); bits <= math.MaxUint32; bits += 251 {
		buf = append(buf, math.Float32frombits(uint32(bits)))
		if len(buf) == cap(buf) {
			checkSigmoidRows(t, buf)
			buf = buf[:0]
		}
	}
	checkSigmoidRows(t, buf)
}

// TestSigmoid32TopOfRange pins the interpolation at the table's upper end:
// the largest float32 below sigLutMax lies a rounding step from the full
// range, and must read the top of the table, not wrap to its bottom.
func TestSigmoid32TopOfRange(t *testing.T) {
	x := math.Nextafter32(sigLutMax, 0)
	if got, want := sigmoid32(x), sigLut[sigLutSize]; got != want {
		t.Fatalf("sigmoid32(%v) = %v, want %v", x, got, want)
	}
	xs := []float32{x, x, x, x}
	sigmoidRows(xs)
	if xs[0] != sigLut[sigLutSize] {
		t.Fatalf("sigmoidRows(%v) = %v, want %v", x, xs[0], sigLut[sigLutSize])
	}
}

// FuzzSigmoidRows reads the input as little-endian float32s and checks
// sigmoidRows against sigmoid32 element by element.
func FuzzSigmoidRows(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 4*9))
	edges := []uint32{0x80000000, 0xc1800000, 0x41800000, 0x417fffff, 0x7f800000, 0xff800000, 0x7fc00000, 0x00000001}
	seed := make([]byte, 0, 4*len(edges))
	for _, b := range edges {
		seed = binary.LittleEndian.AppendUint32(seed, b)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float32, len(data)/4)
		for i := range xs {
			xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkSigmoidRows(t, xs)
	})
}
