// Package fixed implements Q16.16 fixed-point arithmetic.
//
// KML supports integer matrices so that inference can run in kernel contexts
// where the FPU is disabled or absent (§3.1 of the paper: "Operations on
// fixed-point representations can be faster and do not require an FP unit").
// This package provides the scalar type those matrices are built on, plus
// the approximated transcendental functions (exp, sigmoid, tanh) needed to
// execute a trained network entirely in integer arithmetic.
//
// All operations saturate rather than wrap on overflow, mirroring the
// "numerical instability" concern the paper raises for narrow fixed-point
// ranges: saturation keeps a mis-scaled model degraded instead of wild.
//
// This file is kernel-portable; the float-facing shims (FromFloat, Float,
// the e^k table) are the blessed quantization boundary and are marked
// //kml:boundary. Debug formatting lives in format.go, outside the
// kernelspace contract.
//
//kml:kernelspace
package fixed

// Q16 is a signed 32-bit fixed-point number with 16 fractional bits.
// Its representable range is approximately [-32768, 32767.99998].
type Q16 int32

// FracBits is the number of fractional bits in a Q16.
const FracBits = 16

// One is the Q16 representation of 1.0.
const One Q16 = 1 << FracBits

// Half is the Q16 representation of 0.5.
const Half Q16 = 1 << (FracBits - 1)

// Max and Min are the saturation bounds.
const (
	Max Q16 = 1<<31 - 1
	Min Q16 = -1 << 31
)

// FromFloat converts a float64 to Q16, rounding to nearest and saturating.
// It is a user→kernel quantization shim: models are trained in floating
// point and quantized before deployment, so this never runs in kernel
// context.
//
//kml:boundary
func FromFloat(f float64) Q16 {
	scaled := f * float64(One)
	switch {
	case scaled >= float64(Max):
		return Max
	case scaled <= float64(Min):
		return Min
	case scaled >= 0:
		return Q16(scaled + 0.5)
	default:
		return Q16(scaled - 0.5)
	}
}

// FromInt converts an integer to Q16, saturating.
func FromInt(i int) Q16 {
	if i >= 1<<15 {
		return Max
	}
	if i < -(1 << 15) {
		return Min
	}
	return Q16(i) << FracBits
}

// Float returns the float64 value of q. Like FromFloat it is a boundary
// shim for accuracy evaluation and debugging in user space.
//
//kml:boundary
func (q Q16) Float() float64 { return float64(q) / float64(One) }

// Int returns q truncated toward zero to an integer.
func (q Q16) Int() int {
	if q < 0 {
		return -int(-q >> FracBits)
	}
	return int(q >> FracBits)
}

func sat(v int64) Q16 {
	if v > int64(Max) {
		return Max
	}
	if v < int64(Min) {
		return Min
	}
	return Q16(v)
}

// Add returns q+r with saturation.
//
//kml:hotpath
func (q Q16) Add(r Q16) Q16 { return sat(int64(q) + int64(r)) }

// Sub returns q−r with saturation.
//
//kml:hotpath
func (q Q16) Sub(r Q16) Q16 { return sat(int64(q) - int64(r)) }

// Mul returns q·r with rounding and saturation.
//
//kml:hotpath
func (q Q16) Mul(r Q16) Q16 {
	p := int64(q) * int64(r)
	// Round to nearest by adding half an LSB before shifting.
	if p >= 0 {
		p += 1 << (FracBits - 1)
	} else {
		p -= 1 << (FracBits - 1)
	}
	return sat(p >> FracBits)
}

// Div returns q/r with rounding and saturation. Division by zero saturates
// to Max or Min depending on the sign of q (and Max for 0/0).
//
//kml:hotpath
func (q Q16) Div(r Q16) Q16 {
	if r == 0 {
		if q < 0 {
			return Min
		}
		return Max
	}
	n := int64(q) << FracBits
	d := int64(r)
	// Round to nearest.
	if (n < 0) == (d < 0) {
		return sat((n + d/2) / d)
	}
	return sat((n - d/2) / d)
}

// Neg returns −q with saturation (−Min saturates to Max).
//
//kml:hotpath
func (q Q16) Neg() Q16 {
	if q == Min {
		return Max
	}
	return -q
}

// expTable holds e^k in Q16 for k = 0..10; beyond ~10.4 e^x saturates Q16.
// The float literals are quantized once at package init — a boundary
// computation, like loading precomputed constants into a kernel module.
//
//kml:boundary
var expTable = [11]Q16{
	FromFloat(1.0),
	FromFloat(2.718281828459045),
	FromFloat(7.38905609893065),
	FromFloat(20.085536923187668),
	FromFloat(54.598150033144236),
	FromFloat(148.4131591025766),
	FromFloat(403.4287934927351),
	FromFloat(1096.6331584284585),
	FromFloat(2980.9579870417283),
	FromFloat(8103.083927575384),
	FromFloat(22026.465794806718),
}

// Exp returns e**q. Inputs above ~10.4 saturate to Max; inputs below −16
// return 0. The fractional part is evaluated with an 8-term Taylor series,
// accurate to ~1e-4 in relative terms — comparable to the quantization noise
// of the representation itself.
//
//kml:hotpath
func (q Q16) Exp() Q16 {
	if q < FromInt(-16) {
		return 0
	}
	neg := false
	if q < 0 {
		neg = true
		q = q.Neg()
	}
	k := q.Int()
	frac := q.Sub(FromInt(k))
	var intPart Q16
	if k >= len(expTable) {
		if neg {
			return 0
		}
		return Max
	}
	intPart = expTable[k]
	// Taylor on frac in [0, 1).
	term := One
	sum := One
	for i := 1; i <= 8; i++ {
		term = term.Mul(frac).Div(FromInt(i))
		sum = sum.Add(term)
	}
	r := intPart.Mul(sum)
	if neg {
		return One.Div(r)
	}
	return r
}

// Sigmoid returns the logistic function of q evaluated in fixed point,
// using the stable tail formulation.
//
//kml:hotpath
func (q Q16) Sigmoid() Q16 {
	if q >= 0 {
		z := q.Neg().Exp()
		return One.Div(One.Add(z))
	}
	z := q.Exp()
	return z.Div(One.Add(z))
}

// Tanh returns the hyperbolic tangent of q: 2σ(2q) − 1.
//
//kml:hotpath
func (q Q16) Tanh() Q16 {
	two := FromInt(2)
	return two.Mul(q.Mul(two).Sigmoid()).Sub(One)
}

// ReLU returns max(q, 0).
//
//kml:hotpath
func (q Q16) ReLU() Q16 {
	if q < 0 {
		return 0
	}
	return q
}
