package dsp

import "math"

// HilbertScratch holds the reusable FFT buffer for repeated analytic-signal
// and envelope extraction at (roughly) one trace length. Not safe for
// concurrent use — one scratch per goroutine.
type HilbertScratch struct {
	buf []complex128
}

// analytic computes the analytic signal of x into the scratch buffer via
// the FFT method — the negative-frequency half of the spectrum is zeroed
// and the positive half doubled — and returns the buffer (valid in its
// first len(x) samples).
func (h *HilbertScratch) analytic(x []float64) []complex128 {
	plan := PlanFor(len(x))
	if cap(h.buf) < plan.Size() {
		h.buf = make([]complex128, plan.Size())
	}
	h.buf = h.buf[:plan.Size()]
	buf := h.buf
	m := plan.Size()
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	for i := len(x); i < m; i++ {
		buf[i] = 0
	}
	plan.TransformInPlace(buf)
	// h[k] multiplier: 1 for DC and Nyquist, 2 for positive freqs, 0 for
	// negative freqs.
	for k := 1; k < m/2; k++ {
		buf[k] *= 2
	}
	for k := m/2 + 1; k < m; k++ {
		buf[k] = 0
	}
	plan.InverseInPlace(buf)
	return buf
}

// Envelope computes the amplitude envelope |analytic(x)| into dst (pass nil
// to allocate), as used by the paper's envelope-based preamble onset
// detector (§6.1.2).
func (h *HilbertScratch) Envelope(dst []float64, x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return dst[:0]
	}
	buf := h.analytic(x)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		re, im := real(buf[i]), imag(buf[i])
		dst[i] = math.Sqrt(re*re + im*im)
	}
	return dst
}
