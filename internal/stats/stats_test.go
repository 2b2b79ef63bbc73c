package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.n != 0 {
		t.Error("zero value should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.n != 8 {
		t.Errorf("count = %d", r.n)
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", r.Mean())
	}
	if math.Abs(r.Variance()-4) > 1e-12 {
		t.Errorf("variance = %g, want 4", r.Variance())
	}
	if math.Abs(r.StdDev()-2) > 1e-12 {
		t.Errorf("stddev = %g, want 2", r.StdDev())
	}
}

func TestRunningSingleSample(t *testing.T) {
	var r Running
	r.Add(42)
	if r.Mean() != 42 || r.Variance() != 0 {
		t.Error("single sample stats")
	}
}

func TestRunningVarianceNonNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var r Running
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				continue
			}
			r.Add(x)
		}
		return r.Variance() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZScore(t *testing.T) {
	z := ZScore{Mean: 5, StdDev: 2} // the population statistics of 2, 4, 4, 4, 5, 5, 7, 9
	if math.Abs(z.Apply(5)-0) > 1e-12 {
		t.Errorf("z(5) = %g, want 0", z.Apply(5))
	}
	if math.Abs(z.Apply(7)-1) > 1e-12 {
		t.Errorf("z(7) = %g, want 1", z.Apply(7))
	}
	if math.Abs(z.Apply(3)+1) > 1e-12 {
		t.Errorf("z(3) = %g, want -1", z.Apply(3))
	}
}

func TestZScoreDegenerate(t *testing.T) {
	z := ZScore{Mean: 3, StdDev: 0}
	if z.Apply(100) != 0 {
		t.Error("constant feature must normalize to 0, not Inf")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	// Perfect positive correlation.
	if r := Pearson(xs, []float64{2, 4, 6, 8, 10}); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect corr = %g", r)
	}
	// Perfect negative correlation.
	if r := Pearson(xs, []float64{10, 8, 6, 4, 2}); math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorr = %g", r)
	}
	// Constant input is degenerate, not NaN.
	if r := Pearson(xs, []float64{5, 5, 5, 5, 5}); r != 0 {
		t.Errorf("degenerate corr = %g", r)
	}
}

func TestPearsonSymmetricProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		xs := make([]float64, 20)
		ys := make([]float64, 20)
		for j := range xs {
			xs[j] = rng.NormFloat64()
			ys[j] = rng.NormFloat64()
		}
		a, b := Pearson(xs, ys), Pearson(ys, xs)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("Pearson not symmetric: %g vs %g", a, b)
		}
		if a < -1-1e-12 || a > 1+1e-12 {
			t.Fatalf("Pearson out of [-1,1]: %g", a)
		}
	}
}

func TestPearsonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch must panic")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

func BenchmarkRunningAdd(b *testing.B) {
	var r Running
	for i := 0; i < b.N; i++ {
		r.Add(float64(i & 1023))
	}
}

func BenchmarkZScoreApply(b *testing.B) {
	z := ZScore{Mean: 5, StdDev: 2}
	var v float64
	for i := 0; i < b.N; i++ {
		v = z.Apply(float64(i & 255))
	}
	_ = v
}
