package matrix

import (
	"math/rand"
	"testing"
)

func randDense32(rng *rand.Rand, rows, cols, pad int) *Dense[float32] {
	m := NewPadded[float32](rows, cols, pad)
	d := m.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	return m
}

// TestMulBias32MatchesPortable pins the arch-dispatch contract: the
// vectorized MulBias32 fast path (taken when operands carry NewPadded
// spare capacity and n ≤ 16) must be bitwise-identical to the portable
// MulBiasInto reference for every shape, including n > 16 fallback shapes
// and row views below the allocation's high-water mark. Rows 1–9 reach
// every tail of both kernels: the two-row pass of the n ≤ 16 kernel and
// its odd last row, the four-row pass of the n ≤ 4 kernel and its one to
// three leftover rows. On non-amd64 builds both calls run the same code
// and the test is trivially green.
func TestMulBias32MatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	shapes := []struct{ rows, k, n int }{
		{1, 1, 1}, {1, 4, 15}, {3, 5, 4}, {7, 15, 15},
		{64, 15, 4}, {64, 4, 16}, {5, 3, 17}, {33, 20, 31},
	}
	for rows := 1; rows <= 9; rows++ {
		for _, k := range []int{1, 4, 15} {
			for _, n := range []int{1, 3, 4, 5, 15, 16} {
				shapes = append(shapes, struct{ rows, k, n int }{rows, k, n})
			}
		}
	}
	for _, s := range shapes {
		a := randDense32(rng, s.rows, s.k, 0)
		b := randDense32(rng, s.k, s.n, 16)
		bias := randDense32(rng, 1, s.n, 16)
		got := NewPadded[float32](s.rows, s.n, 16)
		want := New[float32](s.rows, s.n)
		MulBias32(got, a, b, bias)
		MulBiasInto(want, a, b, bias)
		for i, w := range want.Data() {
			if got.Data()[i] != w {
				t.Fatalf("shape %dx%dx%d element %d: fast %v != portable %v (not bitwise equal)",
					s.rows, s.k, s.n, i, got.Data()[i], w)
			}
		}
		// A row view of a larger padded allocation must also take the fast
		// path safely: the store overhang lands inside owned backing.
		if s.rows > 1 {
			full := NewPadded[float32](s.rows, s.n, 16)
			view := full.SliceRows(s.rows - 1)
			aView := a.SliceRows(s.rows - 1)
			MulBias32(&view, &aView, b, bias)
			for i := 0; i < (s.rows-1)*s.n; i++ {
				if view.Data()[i] != want.Data()[i] {
					t.Fatalf("shape %dx%dx%d view element %d mismatch", s.rows, s.k, s.n, i)
				}
			}
		}
	}
}

// TestMulBias32UnpaddedFallsBack checks that operands without spare
// capacity never reach the over-width kernel: results still match the
// reference (the wrapper must fall back to the portable loop).
func TestMulBias32UnpaddedFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	a := randDense32(rng, 4, 6, 0)
	b := randDense32(rng, 6, 5, 0)
	bias := randDense32(rng, 1, 5, 0)
	got := New[float32](4, 5)
	want := New[float32](4, 5)
	MulBias32(got, a, b, bias)
	MulBiasInto(want, a, b, bias)
	for i, w := range want.Data() {
		if got.Data()[i] != w {
			t.Fatalf("element %d: %v != %v", i, got.Data()[i], w)
		}
	}
}
