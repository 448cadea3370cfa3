package dsp

import "math"

// FIRFilter is a finite-impulse-response filter described by its tap
// coefficients.
//
// Long convolutions (Apply/ApplyInto on traces much longer than the tap
// count) run as FFT overlap-save through lazily built scratch state, so a
// filter instance is not safe for concurrent use once applied; build one
// filter per goroutine.
type FIRFilter struct {
	Taps []float64

	// Overlap-save scratch, built on first long Apply and rebuilt whenever
	// Taps no longer match the cached copy.
	fftN       int          // block FFT size
	tapsCached []float64    // taps the scratch was built for
	tapsFFT    []complex128 // FFT of zero-padded taps
	blockBuf   []complex128 // per-block work buffer
	plan       *Plan

	// Reversed-tap copy for the direct real evaluators (kernel laid out in
	// input order so the inner product runs forward over both slices).
	revTaps []float64
	// revTaps32 is the single-precision mirror of revTaps for the float32
	// decision lanes (AIC prefilter); rebuilt alongside revTaps.
	revTaps32 []float32
}

// reversed returns the taps in input order, rebuilt when Taps changed.
func (f *FIRFilter) reversed() []float64 {
	m := len(f.Taps)
	stale := len(f.revTaps) != m
	if !stale {
		for i, t := range f.Taps {
			if f.revTaps[m-1-i] != t {
				stale = true
				break
			}
		}
	}
	if stale {
		if cap(f.revTaps) < m {
			f.revTaps = make([]float64, m)
		}
		f.revTaps = f.revTaps[:m]
		for i, t := range f.Taps {
			f.revTaps[m-1-i] = t
		}
	}
	return f.revTaps
}

// scratchStale reports whether the overlap-save scratch no longer matches
// the (exported, mutable) Taps.
func (f *FIRFilter) scratchStale() bool {
	if f.tapsFFT == nil || len(f.tapsCached) != len(f.Taps) {
		return true
	}
	for i, t := range f.Taps {
		if f.tapsCached[i] != t {
			return true
		}
	}
	return false
}

// LowPassFIR designs a linear-phase low-pass FIR filter with the windowed-
// sinc method. cutoff is the -6 dB edge in Hz, sampleRate the sampling rate
// in Hz, and taps the (odd, >= 3) filter length; even values are rounded up.
func LowPassFIR(cutoff, sampleRate float64, taps int) *FIRFilter {
	if taps < 3 {
		taps = 3
	}
	if taps%2 == 0 {
		taps++
	}
	fc := cutoff / sampleRate // normalized cutoff (cycles/sample)
	mid := taps / 2
	h := make([]float64, taps)
	w := HannWindow(taps)
	var sum float64
	for i := 0; i < taps; i++ {
		k := float64(i - mid)
		var v float64
		if k == 0 {
			v = 2 * fc
		} else {
			v = math.Sin(2*math.Pi*fc*k) / (math.Pi * k)
		}
		h[i] = v * w[i]
		sum += h[i]
	}
	// Normalize for unity DC gain.
	if sum != 0 {
		for i := range h {
			h[i] /= sum
		}
	}
	return &FIRFilter{Taps: h}
}

// Apply convolves the filter with a complex trace and returns a trace of the
// same length. Group delay (len(Taps)/2 samples) is compensated so features
// stay time-aligned with the input.
func (f *FIRFilter) Apply(x []complex128) []complex128 {
	return f.ApplyInto(nil, x)
}

// ApplyInto is Apply writing into dst (grown as needed; pass nil to
// allocate), so steady-state filtering reuses one output buffer. dst must
// not alias x.
//
// Traces much longer than the filter are convolved by FFT overlap-save
// (O(n log n) instead of O(n·m)); short traces use the direct form.
func (f *FIRFilter) ApplyInto(dst []complex128, x []complex128) []complex128 {
	n := len(x)
	m := len(f.Taps)
	if n == 0 || m == 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	out := dst[:n]
	if m >= 16 && n >= 8*m {
		f.applyOverlapSave(out, x)
		return out
	}
	delay := m / 2
	for i := 0; i < n; i++ {
		var acc complex128
		// out[i] corresponds to input centered at i (delay-compensated).
		for j := 0; j < m; j++ {
			k := i + delay - j
			if k < 0 || k >= n {
				continue
			}
			acc += x[k] * complex(f.Taps[j], 0)
		}
		out[i] = acc
	}
	return out
}

// applyOverlapSave computes the same delay-compensated convolution as the
// direct form via FFT overlap-save blocks: each block transforms N input
// samples, multiplies by the cached tap spectrum and keeps the N-m+1 valid
// outputs. Scratch (tap FFT, block buffer) is built once per filter.
func (f *FIRFilter) applyOverlapSave(out, x []complex128) {
	n := len(x)
	m := len(f.Taps)
	delay := m / 2
	if f.scratchStale() {
		// Block size: a few thousand points amortizes the per-block FFTs
		// without oversizing the tap spectrum.
		N := NextPow2(8 * m)
		if N < 1024 {
			N = 1024
		}
		f.fftN = N
		f.plan = PlanFor(N)
		f.tapsCached = append(f.tapsCached[:0], f.Taps...)
		f.tapsFFT = make([]complex128, N)
		for i, t := range f.Taps {
			f.tapsFFT[i] = complex(t, 0)
		}
		f.plan.TransformInPlace(f.tapsFFT)
		f.blockBuf = make([]complex128, N)
	}
	N := f.fftN
	L := N - m + 1 // valid linear-convolution outputs per block
	buf := f.blockBuf
	// Full linear convolution index t runs 0..n+m-2; out[i] = y[i+delay].
	// Each block produces y[s .. s+L-1] from inputs x[s-m+1 .. s+L-1].
	for s := 0; s < n+m-1; s += L {
		for k := 0; k < N; k++ {
			idx := s - m + 1 + k
			if idx >= 0 && idx < n {
				buf[k] = x[idx]
			} else {
				buf[k] = 0
			}
		}
		f.plan.TransformInPlace(buf)
		for k := range buf {
			buf[k] *= f.tapsFFT[k]
		}
		f.plan.InverseInPlace(buf)
		for k := 0; k < L; k++ {
			t := s + k
			i := t - delay
			if i < 0 || i >= n {
				continue
			}
			out[i] = buf[m-1+k]
		}
	}
}

// reversed32 returns the float32 mirror of reversed(), rebuilt when Taps
// changed. Callers hold the result only within one apply call.
func (f *FIRFilter) reversed32() []float32 {
	rev := f.reversed()
	m := len(rev)
	stale := len(f.revTaps32) != m
	if !stale {
		for i, t := range rev {
			if f.revTaps32[i] != float32(t) {
				stale = true
				break
			}
		}
	}
	if stale {
		if cap(f.revTaps32) < m {
			f.revTaps32 = make([]float32, m)
		}
		f.revTaps32 = f.revTaps32[:m]
		for i, t := range rev {
			f.revTaps32[i] = float32(t)
		}
	}
	return f.revTaps32
}

// convRealAt evaluates the delay-compensated real convolution at output
// index i, zero-padding outside x. rev is reversed(); interior indices take
// the branch-free inner-product path, unrolled into four accumulators so the
// serial FP-add dependency chain stops bounding throughput (~30% faster on
// the 129-tap AIC prefilter than the single-accumulator form). The unroll
// reassociates the sum, so results differ from the naive loop in the last
// ulp — the accuracy suites gate that.
func (f *FIRFilter) convRealAt(x, rev []float64, i int) float64 {
	m := len(rev)
	delay := m / 2
	base := i + delay - (m - 1)
	if base >= 0 && base+m <= len(x) {
		w := x[base : base+m]
		rev = rev[:len(w)]
		var a0, a1, a2, a3 float64
		j := 0
		for ; j+4 <= len(w); j += 4 {
			w4 := w[j : j+4 : j+4]
			r4 := rev[j : j+4 : j+4]
			a0 += w4[0] * r4[0]
			a1 += w4[1] * r4[1]
			a2 += w4[2] * r4[2]
			a3 += w4[3] * r4[3]
		}
		for ; j < len(w); j++ {
			a0 += w[j] * rev[j]
		}
		return (a0 + a1) + (a2 + a3)
	}
	var acc float64
	for j, t := range rev {
		if k := base + j; k >= 0 && k < len(x) {
			acc += x[k] * t
		}
	}
	return acc
}

// ApplyRealRangeInto evaluates the delay-compensated real convolution at
// output indices [lo, hi) only, writing the hi−lo results into dst (grown
// as needed). dst[j] is the output Apply computes at index lo+j for the
// real trace x.
func (f *FIRFilter) ApplyRealRangeInto(dst, x []float64, lo, hi int) []float64 {
	n := hi - lo
	if n < 0 {
		n = 0
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	rev := f.reversed()
	for j := range dst {
		dst[j] = f.convRealAt(x, rev, lo+j)
	}
	return dst
}

// ApplyRealRangeInto32 is ApplyRealRangeInto on the float32 lane: dst[j]
// equals the single-precision evaluation at output index lo+j. 24-bit
// mantissas are ample here: the lane feeds changepoint decisions on
// 8-bit-quantized envelopes whose own noise floor sits ~40 dB above
// float32 rounding error (see the parity tests' error budget).
func (f *FIRFilter) ApplyRealRangeInto32(dst, x []float32, lo, hi int) []float32 {
	n := hi - lo
	if n < 0 {
		n = 0
	}
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	dst = dst[:n]
	firRange32(dst, x, f.reversed32(), lo)
	return dst
}

// firRange32 writes the delay-compensated convolution of x with the
// reversed taps rev at output indices lo … lo+len(dst)−1 into dst. An
// interior output — its kernel window inside x — runs the four-accumulator
// inner product inline: lanes j mod 4 summed in order, the j ≥ 4⌊m/4⌋ tail
// folded into lane 0, then (a0+a1)+(a2+a3). The unroll keeps the serial
// add chain from bounding throughput, and reassociates the sum against a
// plain loop by the last ulp. An edge output sums the taps that overlap x
// in order, zero-padding the rest.
//
//softlora:allocfree
func firRange32(dst, x, rev []float32, lo int) {
	m := len(rev)
	delay := m / 2
	for j := range dst {
		base := lo + j + delay - (m - 1)
		if base < 0 || base+m > len(x) {
			var acc float32
			for t, r := range rev {
				if k := base + t; k >= 0 && k < len(x) {
					acc += x[k] * r
				}
			}
			dst[j] = acc
			continue
		}
		w := x[base : base+m]
		r := rev[:len(w)]
		var a0, a1, a2, a3 float32
		t := 0
		for ; t+4 <= len(w); t += 4 {
			w4 := w[t : t+4 : t+4]
			r4 := r[t : t+4 : t+4]
			a0 += w4[0] * r4[0]
			a1 += w4[1] * r4[1]
			a2 += w4[2] * r4[2]
			a3 += w4[3] * r4[3]
		}
		for ; t < len(w); t++ {
			a0 += w[t] * r[t]
		}
		dst[j] = (a0 + a1) + (a2 + a3)
	}
}

// BoxcarDroopSq returns the squared magnitude response of a d-sample boxcar
// accumulator (the decimating summer behind DechirpScratch.DechirpDecimateInto)
// at the normalized full-rate frequency f in cycles per input sample,
// f ∈ [−0.5, 0.5): |sin(πfd) / (d·sin(πf))|², normalized to 1 at DC.
// Dividing a decimated power spectrum by this response flattens the
// boxcar's sinc droop so in-band bin powers match the undecimated
// transform's.
func BoxcarDroopSq(d int, f float64) float64 {
	if d <= 1 {
		return 1
	}
	den := math.Sin(math.Pi * f)
	if math.Abs(den) < 1e-12 {
		return 1
	}
	g := math.Sin(math.Pi*f*float64(d)) / (float64(d) * den)
	return g * g
}
