package matrix

import (
	"math"
	"math/rand"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fixed"
)

func TestNewAndAccess(t *testing.T) {
	m := New[float64](2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Error("Set/At mismatch")
	}
	if m.At(0, 0) != 0 {
		t.Error("new matrix should be zeroed")
	}
}

func TestMul(t *testing.T) {
	a := fromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := fromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := mul(a, b)
	want := fromSlice(2, 2, []float64{58, 64, 139, 154})
	if !equal(c, want, 1e-12) {
		t.Errorf("got %v want %v", c, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New[float64](4, 4)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
	}
	id := New[float64](4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	if !equal(mul(a, id), a, 1e-12) || !equal(mul(id, a), a, 1e-12) {
		t.Error("identity multiplication broken")
	}
}

func TestMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched Mul must panic")
		}
	}()
	mul(New[float64](2, 3), New[float64](2, 3))
}

func TestMulTransInto(t *testing.T) {
	a := fromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := fromSlice(4, 3, []float64{1, 0, 1, 0, 1, 0, 2, 2, 2, -1, -1, -1})
	dst := New[float64](2, 4)
	MulTransInto(dst, a, b)
	want := mul(a, transpose(b))
	if !equal(dst, want, 1e-12) {
		t.Errorf("MulTransInto mismatch: %v vs %v", dst, want)
	}
}

func TestTransMulInto(t *testing.T) {
	a := fromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	b := fromSlice(3, 4, []float64{1, 0, 1, 0, 0, 1, 0, 1, 2, 2, 2, 2})
	dst := New[float64](2, 4)
	TransMulInto(dst, a, b)
	want := mul(transpose(a), b)
	if !equal(dst, want, 1e-12) {
		t.Errorf("TransMulInto mismatch: %v vs %v", dst, want)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		a, b, c := randMat(rng, 3, 4), randMat(rng, 4, 2), randMat(rng, 2, 5)
		left := mul(mul(a, b), c)
		right := mul(a, mul(b, c))
		return equal(left, right, 1e-9)
	}
	for i := 0; i < 50; i++ {
		if !f() {
			t.Fatal("matrix multiplication not associative")
		}
	}
}

// fromSlice returns a rows×cols matrix holding a copy of data.
func fromSlice[T Float](rows, cols int, data []T) *Dense[T] {
	m := New[T](rows, cols)
	if copy(m.Data(), data) != rows*cols {
		panic("fromSlice: wrong element count")
	}
	return m
}

// mul returns a·b in a new matrix.
func mul[T Float](a, b *Dense[T]) *Dense[T] {
	dst := New[T](a.Rows(), b.Cols())
	MulInto(dst, a, b)
	return dst
}

// transpose returns mᵀ in a new matrix.
func transpose[T Float](m *Dense[T]) *Dense[T] {
	t := New[T](m.Cols(), m.Rows())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// equal reports whether a and b have the same shape and elements within tol.
func equal[T Float](a, b *Dense[T], tol T) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i, v := range a.Data() {
		if d := v - b.Data()[i]; d > tol || -d > tol {
			return false
		}
	}
	return true
}

// fixedAt returns f's element at row i, column j.
func fixedAt(f *Fixed, i, j int) fixed.Q16 { return f.Row(i)[j] }

func randMat(rng *rand.Rand, r, c int) *Dense[float64] {
	m := New[float64](r, c)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

func TestAddSubHadamard(t *testing.T) {
	a := fromSlice(2, 2, []float64{1, 2, 3, 4})
	b := fromSlice(2, 2, []float64{5, 6, 7, 8})
	sum := New[float64](2, 2)
	AddInto(sum, a, b)
	if !equal(sum, fromSlice(2, 2, []float64{6, 8, 10, 12}), 0) {
		t.Error("AddInto")
	}
	// Aliasing: dst == a.
	AddInto(a, a, b)
	if !equal(a, fromSlice(2, 2, []float64{6, 8, 10, 12}), 0) {
		t.Error("aliased AddInto")
	}
}

func TestAddRowVecSumRows(t *testing.T) {
	m := fromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	v := fromSlice(1, 3, []float64{10, 20, 30})
	m.AddRowVec(v)
	if !equal(m, fromSlice(2, 3, []float64{11, 22, 33, 14, 25, 36}), 0) {
		t.Error("AddRowVec")
	}
	sums := New[float64](1, 3)
	m.SumRowsInto(sums)
	if !equal(sums, fromSlice(1, 3, []float64{25, 47, 69}), 0) {
		t.Error("SumRowsInto")
	}
}

func TestApplyArgMax(t *testing.T) {
	m := fromSlice(2, 3, []float64{1, 5, 3, 1, 25, 9})
	if m.ArgMaxRow(0) != 1 {
		t.Error("ArgMaxRow row 0")
	}
	if m.ArgMaxRow(1) != 1 {
		t.Error("ArgMaxRow row 1")
	}
}

// TestArgMaxRowRule pins the served tie and NaN rule on every element
// type: the first of equal maxima wins, a NaN is never chosen, and a NaN
// in column 0 makes the row class 0.
func TestArgMaxRowRule(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		row  []float64
		want int
	}{
		{[]float64{1, 3, 3, 2}, 1},
		{[]float64{0, math.Copysign(0, -1)}, 0},
		{[]float64{math.Copysign(0, -1), 0}, 0},
		{[]float64{1, nan, 2, nan}, 2},
		{[]float64{nan, 5, inf, 7}, 0},
		{[]float64{-inf, -inf, -1e30}, 2},
		{[]float64{nan, nan}, 0},
		{[]float64{-inf, inf, inf}, 1},
		{[]float64{4}, 0},
	} {
		row32 := make([]float32, len(c.row))
		for i, v := range c.row {
			row32[i] = float32(v)
		}
		if got := fromSlice(1, len(c.row), c.row).ArgMaxRow(0); got != c.want {
			t.Errorf("float64 %v: ArgMaxRow = %d, want %d", c.row, got, c.want)
		}
		if got := fromSlice(1, len(row32), row32).ArgMaxRow(0); got != c.want {
			t.Errorf("float32 %v: ArgMaxRow = %d, want %d", row32, got, c.want)
		}
	}
	f := NewFixed(1, 4)
	copy(f.Row(0), []fixed.Q16{fixed.Min, 7, 7, fixed.Max})
	if got := f.ArgMaxRow(0); got != 3 {
		t.Errorf("Fixed.ArgMaxRow = %d, want 3", got)
	}
	copy(f.Row(0), []fixed.Q16{-2, 7, 7, -1})
	if got := f.ArgMaxRow(0); got != 1 {
		t.Errorf("Fixed.ArgMaxRow with a tie = %d, want 1", got)
	}
}

// TestArgMaxRowBranchFree builds this package's tests, disassembles them
// and checks that every ArgMaxRow's value compare feeds a conditional
// move, not a jump: a served row's class is close to random, so a jump
// there mispredicts on most rows. It needs the go command and runs on
// amd64 only.
func TestArgMaxRowBranchFree(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("checks amd64 code")
	}
	if testing.Short() {
		t.Skip("builds and disassembles a test binary")
	}
	// Calls through method values keep each ArgMaxRow a symbol of its own,
	// even where the compiler would inline it.
	argmax := []func(int) int{New[float32](1, 2).ArgMaxRow, New[float64](1, 2).ArgMaxRow, NewFixed(1, 2).ArgMaxRow}
	for _, f := range argmax {
		f(0)
	}
	// go test strips the binary it runs, so build one that keeps symbols.
	bin := filepath.Join(t.TempDir(), "matrix.test")
	if out, err := exec.Command("go", "test", "-c", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Skipf("go test -c: %v: %s", err, out)
	}
	out, err := exec.Command("go", "tool", "objdump", "-s", `\.ArgMaxRow(-fm)?$`, bin).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool objdump: %v: %s", err, out)
	}
	funcs, compares := 0, 0
	var prev string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "TEXT ") {
			funcs++
			prev = ""
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		op := fields[3]
		// The value compare: UCOMISS/UCOMISD on floats, a 32-bit CMPL on
		// Q16.16 (index and bounds compares are 64-bit).
		if prev == "UCOMISS" || prev == "UCOMISD" || prev == "CMPL" {
			compares++
			if !strings.HasPrefix(op, "CMOV") {
				t.Errorf("%s is followed by %s, not a conditional move:\n%s", prev, op, line)
			}
		}
		prev = op
	}
	if funcs < len(argmax) || compares < len(argmax) {
		t.Fatalf("found %d ArgMaxRow functions with %d value compares, want at least %d of each:\n%s", funcs, compares, len(argmax), out)
	}
}

func TestFloat32Matrices(t *testing.T) {
	a := fromSlice[float32](2, 2, []float32{1, 2, 3, 4})
	b := fromSlice[float32](2, 2, []float32{5, 6, 7, 8})
	c := mul(a, b)
	want := fromSlice[float32](2, 2, []float32{19, 22, 43, 50})
	if !equal(c, want, 1e-5) {
		t.Errorf("float32 mul: %v", c)
	}
}

func TestFillZero(t *testing.T) {
	m := fromSlice(2, 2, []float64{3, 3, 3, 3})
	m.Zero()
	if !equal(m, New[float64](2, 2), 0) {
		t.Error("Zero")
	}
}

func TestRowAliasing(t *testing.T) {
	m := fromSlice(2, 2, []float64{1, 2, 3, 4})
	r := m.Row(1)
	r[0] = 99
	if m.At(1, 0) != 99 {
		t.Error("Row must alias storage")
	}
}

// --- Fixed-point matrices ---

func TestFixedFromAndBack(t *testing.T) {
	m := fromSlice(2, 2, []float64{1.5, -2.25, 0, 100})
	f := FixedFrom(m)
	back := New[float64](2, 2)
	for i, q := range f.Data() {
		back.Data()[i] = q.Float()
	}
	if !equal(back, m, 1e-4) {
		t.Errorf("fixed round trip: %v vs %v", back, m)
	}
}

func TestMulFixedMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 3, 5)
	b := randMat(rng, 5, 4)
	want := mul(a, b)
	fa, fb := FixedFrom(a), FixedFrom(b)
	dst := NewFixed(3, 4)
	MulFixedInto(dst, fa, fb)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if got := fixedAt(dst, i, j).Float(); math.Abs(got-want.At(i, j)) > 1e-3 {
				t.Errorf("fixed mul (%d,%d): %g vs %g", i, j, got, want.At(i, j))
			}
		}
	}
}

func TestMulFixedSaturates(t *testing.T) {
	a := NewFixed(1, 2)
	a.Row(0)[0] = fixed.FromInt(30000)
	a.Row(0)[1] = fixed.FromInt(30000)
	b := NewFixed(2, 1)
	b.Row(0)[0] = fixed.FromInt(30000)
	b.Row(1)[0] = fixed.FromInt(30000)
	dst := NewFixed(1, 1)
	MulFixedInto(dst, a, b)
	if fixedAt(dst, 0, 0) != fixed.Max {
		t.Errorf("expected saturation, got %v", fixedAt(dst, 0, 0))
	}
}

func TestFixedAddRowVecArgMax(t *testing.T) {
	f := NewFixed(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			f.Row(i)[j] = fixed.FromInt(i + j)
		}
	}
	v := NewFixed(1, 3)
	v.Row(0)[2] = fixed.FromInt(10)
	f.AddRowVec(v)
	if fixedAt(f, 0, 2) != fixed.FromInt(12) {
		t.Error("Fixed.AddRowVec")
	}
	if f.ArgMaxRow(0) != 2 {
		t.Error("Fixed.ArgMaxRow")
	}
	f.Apply(func(q fixed.Q16) fixed.Q16 { return q.Neg() })
	if f.ArgMaxRow(0) != 0 {
		t.Error("Fixed.Apply/ArgMax after negation")
	}
}

func TestQuickMulDistributes(t *testing.T) {
	// (a+b)·c == a·c + b·c on random small ints (exact in float64).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		intMat := func(r, c int) *Dense[float64] {
			m := New[float64](r, c)
			for i := range m.Data() {
				m.Data()[i] = float64(rng.Intn(21) - 10)
			}
			return m
		}
		a, b, c := intMat(3, 3), intMat(3, 3), intMat(3, 3)
		ab := New[float64](3, 3)
		AddInto(ab, a, b)
		left := mul(ab, c)
		right := New[float64](3, 3)
		AddInto(right, mul(a, c), mul(b, c))
		return equal(left, right, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMulInto16(b *testing.B)  { benchMul(b, 16) }
func BenchmarkMulInto64(b *testing.B)  { benchMul(b, 64) }
func BenchmarkMulInto128(b *testing.B) { benchMul(b, 128) }

func benchMul(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	x, y := randMat(rng, n, n), randMat(rng, n, n)
	dst := New[float64](n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, y)
	}
}

func BenchmarkMulFixed64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := FixedFrom(randMat(rng, 64, 64)), FixedFrom(randMat(rng, 64, 64))
	dst := NewFixed(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulFixedInto(dst, x, y)
	}
}
