package kmath

import (
	"math"
	"testing"
	"testing/quick"
)

// relErr returns the relative error of got vs want, falling back to absolute
// error when want is ~0.
func relErr(got, want float64) float64 {
	if math.Abs(want) < 1e-300 {
		return math.Abs(got - want)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func TestExpAgainstStdlib(t *testing.T) {
	for x := -700.0; x <= 700; x += 0.37 {
		got, want := Exp(x), math.Exp(x)
		if relErr(got, want) > 1e-13 {
			t.Fatalf("Exp(%g) = %g, want %g (rel err %g)", x, got, want, relErr(got, want))
		}
	}
}

func TestExpEdgeCases(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{0, 1},
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), 0},
		{800, math.Inf(1)},
		{-800, 0},
		{1, E},
	}
	for _, c := range cases {
		if got := Exp(c.in); got != c.want && relErr(got, c.want) > 1e-14 {
			t.Errorf("Exp(%g) = %g, want %g", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Exp(math.NaN())) {
		t.Error("Exp(NaN) should be NaN")
	}
}

func TestLogAgainstStdlib(t *testing.T) {
	for _, x := range []float64{1e-300, 1e-10, 0.001, 0.1, 0.5, 0.99, 1, 1.01, 2, E, 10, 1e3, 1e10, 1e100, 1e300} {
		got, want := Log(x), math.Log(x)
		if relErr(got, want) > 1e-13 && math.Abs(got-want) > 1e-14 {
			t.Errorf("Log(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestLogEdgeCases(t *testing.T) {
	if !math.IsInf(Log(0), -1) {
		t.Error("Log(0) should be -Inf")
	}
	if !math.IsNaN(Log(-1)) {
		t.Error("Log(-1) should be NaN")
	}
	if !math.IsInf(Log(math.Inf(1)), 1) {
		t.Error("Log(+Inf) should be +Inf")
	}
	if Log(1) != 0 {
		t.Errorf("Log(1) = %g, want 0", Log(1))
	}
}

func TestLogExpRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(math.Abs(x), 600) // keep Exp finite
		return relErr(Log(Exp(x)), x) < 1e-10 || math.Abs(Log(Exp(x))-x) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLog1p(t *testing.T) {
	for _, x := range []float64{-0.9, -0.5, -1e-10, 0, 1e-15, 1e-10, 0.1, 0.3, 1, 10} {
		got, want := Log1p(x), math.Log1p(x)
		if relErr(got, want) > 1e-13 && math.Abs(got-want) > 1e-16 {
			t.Errorf("Log1p(%g) = %g, want %g", x, got, want)
		}
	}
	if !math.IsInf(Log1p(-1), -1) {
		t.Error("Log1p(-1) should be -Inf")
	}
	if !math.IsNaN(Log1p(-2)) {
		t.Error("Log1p(-2) should be NaN")
	}
}

func TestSqrtAgainstStdlib(t *testing.T) {
	for _, x := range []float64{0, 1e-300, 1e-10, 0.25, 1, 2, 3, 100, 1e10, 1e300} {
		got, want := Sqrt(x), math.Sqrt(x)
		if relErr(got, want) > 1e-14 {
			t.Errorf("Sqrt(%g) = %g, want %g", x, got, want)
		}
	}
	if !math.IsNaN(Sqrt(-1)) {
		t.Error("Sqrt(-1) should be NaN")
	}
}

func TestSqrtProperty(t *testing.T) {
	f := func(x float64) bool {
		x = math.Abs(x)
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return true
		}
		s := Sqrt(x)
		return relErr(s*s, x) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPow(t *testing.T) {
	cases := [][3]float64{
		{2, 10, 1024},
		{10, -3, 0.001},
		{E, 1, E},
		{7, 0, 1},
		{0, 3, 0},
		{1.5, 2.5, math.Pow(1.5, 2.5)},
		{-2, 3, -8},
		{-2, 4, 16},
	}
	for _, c := range cases {
		if got := Pow(c[0], c[1]); relErr(got, c[2]) > 1e-12 {
			t.Errorf("Pow(%g, %g) = %g, want %g", c[0], c[1], got, c[2])
		}
	}
	if !math.IsNaN(Pow(-2, 0.5)) {
		t.Error("Pow(-2, 0.5) should be NaN")
	}
	if !math.IsInf(Pow(0, -1), 1) {
		t.Error("Pow(0, -1) should be +Inf")
	}
}

func TestSigmoid(t *testing.T) {
	for x := -40.0; x <= 40; x += 0.61 {
		got := Sigmoid(x)
		want := 1 / (1 + math.Exp(-x))
		if relErr(got, want) > 1e-12 && math.Abs(got-want) > 1e-15 {
			t.Errorf("Sigmoid(%g) = %g, want %g", x, got, want)
		}
	}
	if Sigmoid(0) != 0.5 {
		t.Errorf("Sigmoid(0) = %g, want 0.5", Sigmoid(0))
	}
	// Extreme tails must saturate without NaN.
	if Sigmoid(1000) != 1 {
		t.Errorf("Sigmoid(1000) = %g, want 1", Sigmoid(1000))
	}
	if Sigmoid(-1000) != 0 {
		t.Errorf("Sigmoid(-1000) = %g, want 0", Sigmoid(-1000))
	}
}

func TestSigmoidSymmetry(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, 100)
		if math.IsNaN(x) {
			return true
		}
		return math.Abs(Sigmoid(x)+Sigmoid(-x)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTanh(t *testing.T) {
	for x := -15.0; x <= 15; x += 0.37 {
		got, want := Tanh(x), math.Tanh(x)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("Tanh(%g) = %g, want %g", x, got, want)
		}
	}
	if Tanh(100) != 1 || Tanh(-100) != -1 {
		t.Error("Tanh must saturate at ±1")
	}
}

func TestSoftmax(t *testing.T) {
	in := []float64{1, 2, 3}
	out := Softmax(make([]float64, 3), in)
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum = %g, want 1", sum)
	}
	if !(out[2] > out[1] && out[1] > out[0]) {
		t.Errorf("softmax must preserve order: %v", out)
	}
}

func TestSoftmaxStability(t *testing.T) {
	// Large magnitudes must not overflow.
	in := []float64{1000, 1001, 1002}
	out := Softmax(make([]float64, 3), in)
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflowed: %v", out)
		}
	}
	// Shift invariance: softmax(x) == softmax(x + c).
	a := Softmax(make([]float64, 3), []float64{1, 2, 3})
	b := Softmax(make([]float64, 3), []float64{101, 102, 103})
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Errorf("softmax not shift invariant: %v vs %v", a, b)
		}
	}
}

func TestSoftmaxInPlace(t *testing.T) {
	in := []float64{0.5, -0.5, 2}
	want := Softmax(make([]float64, 3), in)
	got := Softmax(in, in) // aliasing allowed
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-15 {
			t.Errorf("in-place softmax mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	if out := Softmax(nil, nil); len(out) != 0 {
		t.Error("empty softmax must return empty")
	}
}

func TestAbsClamp(t *testing.T) {
	if Abs(-3.5) != 3.5 || Abs(3.5) != 3.5 || Abs(0) != 0 {
		t.Error("Abs broken")
	}
	if math.Signbit(Abs(math.Copysign(0, -1))) {
		t.Error("Abs(-0) should drop the sign bit")
	}
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp broken")
	}
}

func TestFrexpLdexpRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		frac, exp := frexp(x)
		if x != 0 && (math.Abs(frac) < 0.5 || math.Abs(frac) >= 1) {
			return false
		}
		return ldexp(frac, exp) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestLdexpOverflowUnderflow(t *testing.T) {
	if !math.IsInf(ldexp(0.75, 2000), 1) {
		t.Error("ldexp overflow should be +Inf")
	}
	if got := ldexp(0.75, -2000); got != 0 {
		t.Errorf("ldexp underflow = %g, want 0", got)
	}
	// Subnormal result path.
	got := ldexp(0.5, -1073)
	want := math.Ldexp(0.5, -1073)
	if got != want {
		t.Errorf("ldexp subnormal = %g, want %g", got, want)
	}
}

func BenchmarkExp(b *testing.B) {
	x := 0.0
	for i := 0; i < b.N; i++ {
		x = Exp(float64(i%100) * 0.01)
	}
	_ = x
}

func BenchmarkLog(b *testing.B) {
	x := 0.0
	for i := 0; i < b.N; i++ {
		x = Log(float64(i%100)*0.01 + 1)
	}
	_ = x
}

func BenchmarkSigmoid(b *testing.B) {
	x := 0.0
	for i := 0; i < b.N; i++ {
		x = Sigmoid(float64(i%200)*0.1 - 10)
	}
	_ = x
}
