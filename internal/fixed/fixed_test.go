package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 0.5, -0.5, 3.25, -17.75, 1000.125, -32000} {
		q := FromFloat(f)
		if got := q.Float(); got != f {
			t.Errorf("FromFloat(%g).Float() = %g", f, got)
		}
	}
}

func TestFromFloatRounding(t *testing.T) {
	// 1/3 is not representable; check rounding to nearest LSB.
	q := FromFloat(1.0 / 3.0)
	if math.Abs(q.Float()-1.0/3.0) > 1.0/(1<<17) {
		t.Errorf("rounding error too large: %g", q.Float())
	}
}

func TestFromFloatSaturation(t *testing.T) {
	if FromFloat(1e9) != Max {
		t.Error("positive overflow must saturate to Max")
	}
	if FromFloat(-1e9) != Min {
		t.Error("negative overflow must saturate to Min")
	}
}

func TestFromInt(t *testing.T) {
	if FromInt(3) != 3*One {
		t.Error("FromInt(3)")
	}
	if FromInt(40000) != Max || FromInt(-40000) != Min {
		t.Error("FromInt must saturate")
	}
	if FromInt(-5).Int() != -5 {
		t.Errorf("Int round trip: %d", FromInt(-5).Int())
	}
}

func TestAddSubSaturate(t *testing.T) {
	if Max.Add(One) != Max {
		t.Error("Add must saturate high")
	}
	if Min.Sub(One) != Min {
		t.Error("Sub must saturate low")
	}
	if FromInt(2).Add(FromInt(3)) != FromInt(5) {
		t.Error("2+3 != 5")
	}
}

func TestMul(t *testing.T) {
	cases := [][3]float64{
		{2, 3, 6},
		{-2, 3, -6},
		{0.5, 0.5, 0.25},
		{-0.5, -0.5, 0.25},
		{100, 100, 10000},
	}
	for _, c := range cases {
		got := FromFloat(c[0]).Mul(FromFloat(c[1])).Float()
		if math.Abs(got-c[2]) > 1e-4 {
			t.Errorf("%g*%g = %g, want %g", c[0], c[1], got, c[2])
		}
	}
	if FromInt(30000).Mul(FromInt(30000)) != Max {
		t.Error("Mul overflow must saturate")
	}
	if FromInt(-30000).Mul(FromInt(30000)) != Min {
		t.Error("Mul negative overflow must saturate")
	}
}

func TestDiv(t *testing.T) {
	cases := [][3]float64{
		{6, 3, 2},
		{-6, 3, -2},
		{1, 4, 0.25},
		{1, 3, 1.0 / 3.0},
		{-1, -2, 0.5},
	}
	for _, c := range cases {
		got := FromFloat(c[0]).Div(FromFloat(c[1])).Float()
		if math.Abs(got-c[2]) > 1e-4 {
			t.Errorf("%g/%g = %g, want %g", c[0], c[1], got, c[2])
		}
	}
	if FromInt(1).Div(0) != Max || FromInt(-1).Div(0) != Min {
		t.Error("division by zero must saturate")
	}
}

func TestMulCommutesProperty(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Q16(a/256), Q16(b/256) // keep products in range
		return x.Mul(y) == y.Mul(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulDivInverseProperty(t *testing.T) {
	f := func(a int32) bool {
		abs := func(q Q16) Q16 {
			if q < 0 {
				return q.Neg()
			}
			return q
		}
		q := Q16(a / 4)
		if abs(q) < One/16 { // tiny values lose too much precision
			return true
		}
		r := q.Mul(FromFloat(1.7)).Div(FromFloat(1.7))
		diff := abs(r.Sub(q))
		return diff <= abs(q)/256+16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNegAbs(t *testing.T) {
	if FromInt(5).Neg() != FromInt(-5) {
		t.Error("Neg")
	}
	if Min.Neg() != Max {
		t.Error("Neg(Min) must saturate to Max")
	}
	if FromInt(-5).Neg() != FromInt(5) {
		t.Error("Neg of a negative")
	}
}

func TestExp(t *testing.T) {
	for x := -8.0; x <= 8; x += 0.5 {
		got := FromFloat(x).Exp().Float()
		want := math.Exp(x)
		tol := want*0.01 + 2e-3
		if math.Abs(got-want) > tol {
			t.Errorf("Exp(%g) = %g, want %g", x, got, want)
		}
	}
	if FromInt(-20).Exp() != 0 {
		t.Error("Exp of very negative should be 0")
	}
	if FromInt(15).Exp() != Max {
		t.Error("Exp overflow must saturate")
	}
}

func TestSigmoid(t *testing.T) {
	for x := -10.0; x <= 10; x += 0.25 {
		got := FromFloat(x).Sigmoid().Float()
		want := 1 / (1 + math.Exp(-x))
		if math.Abs(got-want) > 5e-3 {
			t.Errorf("Sigmoid(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestSigmoidMonotoneProperty(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Q16(a/1024), Q16(b/1024)
		if x > y {
			x, y = y, x
		}
		return x.Sigmoid() <= y.Sigmoid()+4 // allow tiny quantization jitter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTanh(t *testing.T) {
	for x := -4.0; x <= 4; x += 0.25 {
		got := FromFloat(x).Tanh().Float()
		want := math.Tanh(x)
		if math.Abs(got-want) > 1e-2 {
			t.Errorf("Tanh(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestReLU(t *testing.T) {
	if FromInt(-3).ReLU() != 0 || FromInt(3).ReLU() != FromInt(3) || Q16(0).ReLU() != 0 {
		t.Error("ReLU broken")
	}
}

func TestString(t *testing.T) {
	if s := FromFloat(1.5).String(); s != "1.50000" {
		t.Errorf("String() = %q", s)
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := FromFloat(1.37), FromFloat(-2.45)
	var r Q16
	for i := 0; i < b.N; i++ {
		r = x.Mul(y)
	}
	_ = r
}

func BenchmarkSigmoid(b *testing.B) {
	x := FromFloat(0.73)
	var r Q16
	for i := 0; i < b.N; i++ {
		r = x.Sigmoid()
	}
	_ = r
}
