package dsp

import "math"

// GoertzelDFT evaluates the DFT of x at one arbitrary angular frequency
// omega (radians per sample):
//
//	X(ω) = Σ_{i<n} x[i]·e^{−jωi}
//
// in O(n) with the Goertzel recurrence — two real multiplies per sample
// against the real coefficient 2·cos ω, no twiddle table and no restriction
// of ω to an FFT bin grid. It allocates nothing, so hot paths may call it
// per window; when a caller needs several frequencies of one window,
// GoertzelMany reads the window once for all of them, and when it needs the
// same frequencies across many window positions of one trace, SlidingDFT
// amortizes the evaluation to O(1) per one-sample shift instead.
func GoertzelDFT(x []complex128, omega float64) complex128 {
	n := len(x)
	if n == 0 {
		return 0
	}
	coeff := 2 * math.Cos(omega)
	var s1, s2 complex128
	for _, v := range x {
		// The coefficient is real, so scale componentwise instead of paying
		// a full complex multiply.
		s0 := v + complex(coeff*real(s1)-real(s2), coeff*imag(s1)-imag(s2))
		s2, s1 = s1, s0
	}
	return goertzelUnwind(s1, s2, omega, n)
}

// goertzelUnwind turns the final Goertzel state into the DFT value:
// X(ω) = (s_{n−1} − e^{−jω}·s_{n−2})·e^{−jω(n−1)}.
func goertzelUnwind(s1, s2 complex128, omega float64, n int) complex128 {
	sin, cos := math.Sincos(omega)
	em := complex(cos, -sin)
	sinN, cosN := math.Sincos(omega * float64(n-1))
	return (s1 - em*s2) * complex(cosN, -sinN)
}

// goertzelLanes is how many frequencies one GoertzelMany pass carries. A
// single Goertzel recurrence is latency-bound (each sample's multiply,
// subtract and add wait on the previous sample's); three interleaved
// recurrences keep both floating-point pipes busy while their state still
// fits the register file, and three divides the refinement comb's nine
// candidate tones (core.DechirpOnsetDetector) into whole passes.
const goertzelLanes = 3

// GoertzelMany evaluates the DFT of x at every angular frequency of omegas
// into dst[:len(omegas)], reading x once per goertzelLanes frequencies
// instead of once per frequency. Each frequency keeps its own accumulator
// pair, updated in GoertzelDFT's operation order, so dst[k] is bit-identical
// to GoertzelDFT(x, omegas[k]). dst must hold at least len(omegas) values.
// It allocates nothing.
//
//softlora:allocfree
func GoertzelMany(dst, x []complex128, omegas []float64) {
	n := len(x)
	dst = dst[:len(omegas)]
	if n == 0 {
		for k := range dst {
			dst[k] = 0
		}
		return
	}
	for k := 0; k < len(omegas); k += goertzelLanes {
		// A short last group repeats its final frequency in the spare
		// lanes; lanes never mix, so the repeats cost time, not bits.
		var om [goertzelLanes]float64
		for l := range om {
			om[l] = omegas[min(k+l, len(omegas)-1)]
		}
		c0, c1, c2 := 2*math.Cos(om[0]), 2*math.Cos(om[1]), 2*math.Cos(om[2])
		var a1r, a1i, a2r, a2i float64 // lane 0: s1, s2
		var b1r, b1i, b2r, b2i float64 // lane 1
		var d1r, d1i, d2r, d2i float64 // lane 2
		for _, v := range x {
			vr, vi := real(v), imag(v)
			a0r, a0i := vr+(c0*a1r-a2r), vi+(c0*a1i-a2i)
			b0r, b0i := vr+(c1*b1r-b2r), vi+(c1*b1i-b2i)
			d0r, d0i := vr+(c2*d1r-d2r), vi+(c2*d1i-d2i)
			a2r, a2i, a1r, a1i = a1r, a1i, a0r, a0i
			b2r, b2i, b1r, b1i = b1r, b1i, b0r, b0i
			d2r, d2i, d1r, d1i = d1r, d1i, d0r, d0i
		}
		out := [goertzelLanes]complex128{
			goertzelUnwind(complex(a1r, a1i), complex(a2r, a2i), om[0], n),
			goertzelUnwind(complex(b1r, b1i), complex(b2r, b2i), om[1], n),
			goertzelUnwind(complex(d1r, d1i), complex(d2r, d2i), om[2], n),
		}
		copy(dst[k:], out[:])
	}
}
