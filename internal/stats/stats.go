// Package stats implements the data normalization and statistical functions
// KML offers (§3.2 of the paper): moving averages, standard deviation,
// Z-score calculation, and the Pearson correlation the authors used for
// feature selection (§4).
//
// Running aggregates use Welford's algorithm so the data-collection hot path
// is a handful of adds and multiplies per sample — this is what makes the
// paper's ~49 ns per-event budget attainable.
package stats

import "repro/internal/kmath"

// Running accumulates count, mean and variance online (Welford). The zero
// value is ready to use.
type Running struct {
	n    uint64
	mean float64
	m2   float64
}

// Add folds x into the aggregate.
//
//kml:hotpath
func (r *Running) Add(x float64) {
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// Mean returns the running mean (0 before any samples).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the population variance (0 with fewer than 2 samples).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return kmath.Sqrt(r.Variance()) }

// ZScore standardizes values against a fitted mean/stddev. Fit it on
// training data, then Apply at inference time — matching the paper's
// "calculated the Z-score for each feature to normalize the input data".
type ZScore struct {
	Mean   float64
	StdDev float64
}

// Apply standardizes x. A degenerate (zero) standard deviation yields 0 so a
// constant feature cannot poison the network with Inf/NaN.
//
//kml:hotpath
func (z ZScore) Apply(x float64) float64 {
	if z.StdDev == 0 {
		return 0
	}
	return (x - z.Mean) / z.StdDev
}

// Pearson returns the Pearson correlation coefficient of xs and ys, which
// must have equal nonzero length. Degenerate (constant) inputs return 0.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("stats: Pearson requires equal-length nonempty slices")
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	n := float64(len(xs))
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / kmath.Sqrt(sxx*syy)
}
