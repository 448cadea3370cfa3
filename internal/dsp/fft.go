package dsp

import (
	"math"
	"math/bits"
)

// NextPow2 returns the smallest power of two that is >= n, and 1 for n <= 1.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// FFT computes the discrete Fourier transform of x using an iterative
// radix-2 Cooley-Tukey algorithm. If len(x) is not a power of two, x is
// zero-padded to the next power of two. The input is not modified.
//
// FFT allocates its output; hot paths that transform repeatedly at one size
// should hold a Plan and reuse buffers via Transform/TransformInPlace.
func FFT(x []complex128) []complex128 {
	p := PlanFor(len(x))
	out := make([]complex128, p.Size())
	p.Transform(out, x)
	return out
}

// BinFrequency returns the signal frequency (Hz) corresponding to FFT bin k
// of an n-point transform at the given sample rate, mapping bins above n/2
// to negative frequencies.
func BinFrequency(k, n int, sampleRate float64) float64 {
	if k > n/2 {
		k -= n
	}
	return float64(k) * sampleRate / float64(n)
}

// FoldFrequency wraps f into the principal alias band (−rate/2, rate/2] of
// a sampling rate. Interpolated peak readouts need this: a fractional-bin
// correction applied at the Nyquist bin can push the result past +rate/2,
// where the physically observable frequency has already wrapped negative.
func FoldFrequency(f, rate float64) float64 {
	f = math.Mod(f, rate)
	if f > rate/2 {
		f -= rate
	} else if f <= -rate/2 {
		f += rate
	}
	return f
}

// PeakBinSq returns the index and SQUARED magnitude of the strongest bin —
// the one squared-magnitude scanner behind every peak search in the
// gateway (one multiply-add per bin, no square roots). Callers that need
// the linear magnitude take math.Sqrt of the result once; most consume the
// squared value directly (power ratios, relative comparisons).
func PeakBinSq(spectrum []complex128) (bin int, magSq float64) {
	for i, v := range spectrum {
		re, im := real(v), imag(v)
		if m := re*re + im*im; m > magSq {
			magSq = m
			bin = i
		}
	}
	return bin, magSq
}

// InterpolatePeak refines a spectral peak location to sub-bin accuracy by
// fitting a parabola to the log-magnitudes of the peak bin and its two
// neighbors (with wraparound). It returns the fractional bin offset in
// [-0.5, 0.5] to add to the integer peak index.
func InterpolatePeak(spectrum []complex128, bin int) float64 {
	n := len(spectrum)
	if n < 3 {
		return 0
	}
	alpha := logMag(spectrum[((bin-1)%n+n)%n])
	beta := logMag(spectrum[(bin%n+n)%n])
	gamma := logMag(spectrum[((bin+1)%n+n)%n])
	denom := alpha - 2*beta + gamma
	if denom == 0 {
		return 0
	}
	d := 0.5 * (alpha - gamma) / denom
	if d > 0.5 {
		d = 0.5
	} else if d < -0.5 {
		d = -0.5
	}
	return d
}

// logMag returns log|v| from the squared magnitude, log|v| = log(|v|²)/2,
// saving the square root; a zero magnitude reads as a tiny positive one.
func logMag(v complex128) float64 {
	re, im := real(v), imag(v)
	m := re*re + im*im
	if m <= 0 {
		m = 1e-300
	}
	return 0.5 * math.Log(m)
}

// Spectrogram computes a short-time Fourier transform power spectrogram of
// the complex trace x. Each column is the power spectral density of one
// window of windowLen samples; consecutive windows overlap by overlap
// samples. The window function w must have length windowLen (use
// KaiserWindow to match the paper's Fig. 6 setup).
//
// The returned matrix is indexed as psd[frame][bin] with bins in FFT order.
// Repeated spectrograms with one window should build a SpectrogramPlan and
// reuse its buffers instead.
func Spectrogram(x []complex128, w []float64, overlap int) [][]float64 {
	if len(w) == 0 || len(x) < len(w) {
		return nil
	}
	return NewSpectrogramPlan(w, overlap).Compute(x, nil)
}
