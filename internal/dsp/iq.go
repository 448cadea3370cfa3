package dsp

import "math"

// I returns the in-phase (real) components of the trace.
func I(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = real(v)
	}
	return out
}

// Power returns the average power of the trace, i.e. mean(|x|^2).
// It returns 0 for an empty trace.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		re, im := real(v), imag(v)
		sum += re*re + im*im
	}
	return sum / float64(len(x))
}

// ScaleInPlace multiplies every sample of x by the real gain g.
func ScaleInPlace(x []complex128, g float64) {
	cg := complex(g, 0)
	for i := range x {
		x[i] *= cg
	}
}

// Phase returns the four-quadrant phase atan2(Q, I) of every sample, in
// (-pi, pi].
func Phase(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = math.Atan2(imag(v), real(v))
	}
	return out
}

// FromdB converts a value in decibels to a linear power ratio.
func FromdB(db float64) float64 { return math.Pow(10, db/10) }
