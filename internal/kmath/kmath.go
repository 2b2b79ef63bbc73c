// Package kmath provides from-scratch implementations of the transcendental
// and utility math functions KML needs.
//
// The original KML runs inside the Linux kernel, where libc (and therefore
// libm) is unavailable, so the authors reimplemented logarithm, softmax,
// logistic and friends "from scratch using approximation algorithms" (§2).
// This package mirrors that constraint: it uses no transcendental function
// from the standard math package — only bit-level helpers (Float64bits,
// Float64frombits, IsNaN, IsInf, Inf, NaN), which correspond to operations
// any kernel can perform. Accuracy bounds are enforced against the stdlib in
// the package tests.
package kmath

import "math"

// Useful constants, spelled out because we do not call math.Log/math.Exp.
const (
	E      = 2.71828182845904523536028747135266249775724709369995957496697
	Ln2    = 0.693147180559945309417232121458176568075500134360255254120680
	Log2E  = 1.442695040888963407359924681001892137426645954152985934135449
	Sqrt2  = 1.41421356237309504880168872420969807856967187537694807317668
	Pi     = 3.14159265358979323846264338327950288419716939937510582097494
	MaxExp = 709.782712893384  // largest x with Exp(x) finite
	MinExp = -745.133219101941 // smallest x with Exp(x) > 0
)

// Abs returns the absolute value of x. Unlike a naive branch it preserves
// the sign-bit semantics for -0 and NaN.
func Abs(x float64) float64 {
	return math.Float64frombits(math.Float64bits(x) &^ (1 << 63))
}

// Clamp limits x to the inclusive range [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// frexp decomposes f into a normalized fraction in [0.5, 1) and a power of
// two, f = frac * 2**exp. It mirrors libm's frexp using only bit operations.
//
//kml:hotpath
func frexp(f float64) (frac float64, exp int) {
	if f == 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return f, 0
	}
	const (
		mantBits = 52
		expMask  = 0x7FF
		expBias  = 1022 // bias such that fraction lands in [0.5, 1)
	)
	bits := math.Float64bits(f)
	e := int(bits>>mantBits) & expMask
	if e == 0 {
		// Subnormal: scale up by 2^64 first so the exponent field is usable.
		f *= 1 << 64
		bits = math.Float64bits(f)
		e = int(bits>>mantBits)&expMask - 64
	}
	exp = e - expBias
	bits = bits&^(uint64(expMask)<<mantBits) | uint64(expBias)<<mantBits
	return math.Float64frombits(bits), exp
}

// ldexp returns frac * 2**exp using only bit operations. After frexp
// renormalization the fraction lies in [0.5, 1), so the scale can be applied
// as at most two representable powers of two.
//
//kml:hotpath
func ldexp(frac float64, exp int) float64 {
	if frac == 0 || math.IsNaN(frac) || math.IsInf(frac, 0) {
		return frac
	}
	frac, e := frexp(frac)
	exp += e
	switch {
	case exp < -1074:
		return copySign(0, frac)
	case exp > 1024:
		return copySign(math.Inf(1), frac)
	case exp == 1024:
		// frac*2 is in [1, 2), and 2^1023 is representable.
		return (frac * 2) * pow2(1023)
	case exp < -1022:
		// Split so the first product stays normal and only the final
		// multiply rounds into the subnormal range: exp+1022 ∈ [-52, -1].
		return (frac * pow2(exp+1022)) * pow2(-1022)
	}
	return frac * pow2(exp)
}

// pow2 returns 2**exp for exp in [-1022, 1023] via direct bit construction.
//
//kml:hotpath
func pow2(exp int) float64 {
	return math.Float64frombits(uint64(exp+1023) << 52)
}

//
//kml:hotpath
func copySign(x, sign float64) float64 {
	const signBit = 1 << 63
	return math.Float64frombits(math.Float64bits(x)&^signBit | math.Float64bits(sign)&signBit)
}

// Exp returns e**x using range reduction (x = k·ln2 + r, |r| ≤ ln2/2)
// followed by a degree-7 minimax-style Taylor polynomial for e**r and a
// final scale by 2**k. Relative error is below 1e-14 across the domain.
//
//kml:hotpath
func Exp(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x > MaxExp:
		return math.Inf(1)
	case x < MinExp:
		return 0
	case x == 0:
		return 1
	}
	// Every product below is rounded by an explicit float64 conversion,
	// so no backend may fuse it into the add that follows (the Go spec
	// permits fusion otherwise, and arm64 does it): e**x, and with it
	// the served sigmoid table, is the same bits on every GOARCH.
	//
	// k = round(x / ln2)
	k := int(float64(x*Log2E) + copySign(0.5, x))
	// r = x - k*ln2, computed in two parts for accuracy (Cody-Waite).
	const (
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10
	)
	hi := x - float64(float64(k)*ln2Hi)
	lo := float64(float64(k) * ln2Lo)
	r := hi - lo
	// e**r via Taylor series; |r| <= ~0.347 so 11 terms give < 1e-16.
	term := 1.0
	sum := 1.0
	for i := 1; i <= 12; i++ {
		term = float64(term * (r / float64(i)))
		sum += term
	}
	return ldexpFast(sum, k)
}

// ldexpFast is ldexp for the common case where the result stays normal;
// it falls back to the general path otherwise.
//
//kml:hotpath
func ldexpFast(frac float64, exp int) float64 {
	if exp >= -1022 && exp <= 1023 && frac >= 0.5 && frac <= 2 {
		return frac * pow2(exp)
	}
	return ldexp(frac, exp)
}

// Log returns the natural logarithm of x. It decomposes x = m·2**e with
// m in [sqrt(2)/2, sqrt(2)) and evaluates ln(m) with the atanh series
// ln(m) = 2·atanh((m−1)/(m+1)), which converges rapidly on that interval.
//
//kml:hotpath
func Log(x float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	}
	m, e := frexp(x)
	// Shift m into [sqrt(2)/2, sqrt(2)) to center the series around 1.
	if m < Sqrt2/2 {
		m *= 2
		e--
	}
	t := (m - 1) / (m + 1)
	t2 := t * t
	// 2*atanh(t) = 2t * (1 + t²/3 + t⁴/5 + ...)
	sum := 0.0
	pow := 1.0
	for i := 0; i < 12; i++ {
		sum += pow / float64(2*i+1)
		pow *= t2
	}
	return 2*t*sum + float64(e)*Ln2
}

// Log1p returns ln(1+x), accurate for small |x| where Log(1+x) would lose
// precision.
func Log1p(x float64) float64 {
	if math.IsNaN(x) || x <= -1 {
		if x == -1 {
			return math.Inf(-1)
		}
		if x < -1 {
			return math.NaN()
		}
		return x
	}
	if Abs(x) >= 0.25 {
		return Log(1 + x)
	}
	// atanh series on t = x/(2+x): ln(1+x) = 2 atanh(x/(2+x)).
	t := x / (2 + x)
	t2 := t * t
	sum := 0.0
	pow := 1.0
	for i := 0; i < 10; i++ {
		sum += pow / float64(2*i+1)
		pow *= t2
	}
	return 2 * t * sum
}

// Sqrt returns the square root of x via Newton–Raphson iteration seeded with
// a bit-level initial estimate.
func Sqrt(x float64) float64 {
	switch {
	case x == 0 || math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return math.NaN()
	}
	// Initial estimate: halve the exponent.
	bits := math.Float64bits(x)
	bits = (bits >> 1) + (uint64(1023) << 51)
	y := math.Float64frombits(bits)
	// Newton iterations; 4 suffice for full double precision from this seed.
	for i := 0; i < 5; i++ {
		y = 0.5 * (y + x/y)
	}
	return y
}

// Pow returns x**y for x > 0 (the only case KML needs), computed as
// exp(y·ln x). For x == 0 it returns 0 for y > 0 and +Inf for y < 0.
func Pow(x, y float64) float64 {
	switch {
	case y == 0:
		return 1
	case x == 0:
		if y > 0 {
			return 0
		}
		return math.Inf(1)
	case x < 0:
		// Integer exponents of negative bases, by repeated squaring.
		if y == float64(int64(y)) {
			r := Pow(-x, y)
			if int64(y)&1 == 1 {
				return -r
			}
			return r
		}
		return math.NaN()
	}
	return Exp(y * Log(x))
}

// Sigmoid returns the logistic function 1/(1+e**−x). It is evaluated in a
// numerically stable form on both tails.
//
//kml:hotpath
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := Exp(-x)
		return 1 / (1 + z)
	}
	z := Exp(x)
	return z / (1 + z)
}

// Tanh returns the hyperbolic tangent of x, expressed through the stable
// sigmoid: tanh(x) = 2σ(2x) − 1.
//
//kml:hotpath
func Tanh(x float64) float64 {
	if x > 20 {
		return 1
	}
	if x < -20 {
		return -1
	}
	return 2*Sigmoid(2*x) - 1
}

// Softmax writes the softmax of src into dst (which may alias src) using the
// max-subtraction trick for numerical stability, and returns dst.
//
//kml:hotpath
func Softmax(dst, src []float64) []float64 {
	if len(dst) != len(src) {
		panic("kmath: Softmax length mismatch")
	}
	if len(src) == 0 {
		return dst
	}
	maxV := src[0]
	for _, v := range src[1:] {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for i, v := range src {
		e := Exp(v - maxV)
		dst[i] = e
		sum += e
	}
	if sum == 0 {
		uniform := 1 / float64(len(dst))
		for i := range dst {
			dst[i] = uniform
		}
		return dst
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}
