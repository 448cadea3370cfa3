package dsp

import "math"

// OscRenormInterval is the number of recurrence steps an oscillator runs
// between exact re-seeds. Each step performs one (Rotator) or two
// (Oscillator) complex multiplies, so rounding error accumulates as a slow
// random walk in both magnitude and phase; re-seeding from the closed-form
// phase polynomial every OscRenormInterval samples resets the walk, keeping
// the phase error well below 1e-9 rad per block (see the drift property
// tests) at an amortized cost of one math.Sincos per ~kilosample.
const OscRenormInterval = 1024

// Oscillator generates the sample stream
//
//	s[i] = A·exp(j·(φ0 + 2π·(f·t + k·t²/2))),   t = i·dt
//
// with a second-order recurrence: s[i+1] = s[i]·r[i], r[i+1] = r[i]·q where
// q = exp(j·2π·k·dt²) is constant. That is two complex multiplies per sample
// in place of the phase-polynomial evaluation plus math.Sincos a direct
// renderer pays — the waveform of a LoRa chirp segment (quadratic phase) at
// roughly one tenth of the cost. A zero sweep rate k degenerates to a
// constant-frequency rotator, but use Rotator for that: it saves the second
// multiply.
//
// An Oscillator is a value type holding only its own state; its methods
// allocate nothing and it is single-goroutine like all mutable dsp state.
type Oscillator struct {
	s, r, q complex128
	i, left int
	amp     float64
	phase0  float64
	f, k    float64
	dt      float64
}

// NewOscillator seeds an oscillator producing amp·exp(j·(phase0 +
// 2π·(freqHz·t + sweepHzPerS·t²/2))) at t = i·dt for i = 0, 1, 2, …
func NewOscillator(amp, phase0, freqHz, sweepHzPerS, dt float64) Oscillator {
	o := Oscillator{amp: amp, phase0: phase0, f: freqHz, k: sweepHzPerS, dt: dt}
	sq, cq := math.Sincos(2 * math.Pi * sweepHzPerS * dt * dt)
	o.q = complex(cq, sq)
	o.reseed(0)
	return o
}

// reseed recomputes s and r exactly from the phase polynomial at step i,
// discarding all accumulated recurrence rounding error.
func (o *Oscillator) reseed(i int) {
	o.i = i
	o.left = OscRenormInterval
	t := float64(i) * o.dt
	sp, cp := math.Sincos(o.phase0 + 2*math.Pi*(o.f*t+0.5*o.k*t*t))
	o.s = complex(o.amp*cp, o.amp*sp)
	// Phase step from sample i to i+1: 2π(f·dt + k·dt²·(i + 1/2)).
	sr, cr := math.Sincos(2 * math.Pi * (o.f*o.dt + o.k*o.dt*o.dt*(float64(i)+0.5)))
	o.r = complex(cr, sr)
}

// chunk clamps n to the samples remaining before the next re-seed,
// re-seeding first if the interval is exhausted.
func (o *Oscillator) chunk(n int) int {
	if o.left == 0 {
		o.reseed(o.i)
	}
	if n > o.left {
		n = o.left
	}
	return n
}

// Next returns the current sample and advances one step.
func (o *Oscillator) Next() complex128 {
	o.chunk(1)
	v := o.s
	o.s *= o.r
	o.r *= o.q
	o.i++
	o.left--
	return v
}

// AddTo adds the next len(dst) samples into dst.
func (o *Oscillator) AddTo(dst []complex128) {
	for len(dst) > 0 {
		n := o.chunk(len(dst))
		s, r, q := o.s, o.r, o.q
		for j := 0; j < n; j++ {
			dst[j] += s
			s *= r
			r *= q
		}
		o.s, o.r = s, r
		o.i += n
		o.left -= n
		dst = dst[n:]
	}
}

// Rotator is the first-order variant of Oscillator for constant-frequency
// rotation: s[i] = A·exp(j·(φ0 + 2π·f·dt·i)), advanced by a single complex
// multiply per sample with the same exact re-seed every OscRenormInterval
// samples.
type Rotator struct {
	s, r    complex128
	i, left int
	amp     float64
	phase0  float64
	f, dt   float64
}

// NewRotator seeds a rotator producing amp·exp(j·(phase0 + 2π·freqHz·dt·i)).
func NewRotator(amp, phase0, freqHz, dt float64) Rotator {
	o := Rotator{amp: amp, phase0: phase0, f: freqHz, dt: dt}
	sr, cr := math.Sincos(2 * math.Pi * freqHz * dt)
	o.r = complex(cr, sr)
	o.reseed(0)
	return o
}

func (o *Rotator) reseed(i int) {
	o.i = i
	o.left = OscRenormInterval
	sp, cp := math.Sincos(o.phase0 + 2*math.Pi*o.f*o.dt*float64(i))
	o.s = complex(o.amp*cp, o.amp*sp)
}

func (o *Rotator) chunk(n int) int {
	if o.left == 0 {
		o.reseed(o.i)
	}
	if n > o.left {
		n = o.left
	}
	return n
}

// Next returns the current sample and advances one step.
func (o *Rotator) Next() complex128 {
	o.chunk(1)
	v := o.s
	o.s *= o.r
	o.i++
	o.left--
	return v
}

// MulInto writes dst[i] = src[i] · s[i] for the next len(src) samples and
// returns the power of what it wrote, Σ|dst[i]|², summed in index order —
// bit-identical to a separate pass over dst, without re-reading it. dst
// must be at least as long as src; dst and src may be the same slice
// (in-place rotation).
//
// The loop runs two interleaved phasor lanes advanced by r² so the
// recurrence's multiply latency overlaps across iterations; the lanes'
// rounding differs from the scalar recurrence by ~1 ulp per step, which
// the exact re-seed bounds exactly like the scalar drift.
func (o *Rotator) MulInto(dst, src []complex128) (power float64) {
	for len(src) > 0 {
		n := o.chunk(len(src))
		s, r := o.s, o.r
		s1 := s * r
		r2 := r * r
		j := 0
		for ; j+2 <= n; j += 2 {
			v0 := src[j] * s
			v1 := src[j+1] * s1
			dst[j] = v0
			dst[j+1] = v1
			power += real(v0)*real(v0) + imag(v0)*imag(v0)
			power += real(v1)*real(v1) + imag(v1)*imag(v1)
			s *= r2
			s1 *= r2
		}
		if j < n {
			v := src[j] * s
			dst[j] = v
			power += real(v)*real(v) + imag(v)*imag(v)
			s = s1
		}
		o.s = s
		o.i += n
		o.left -= n
		dst, src = dst[n:], src[n:]
	}
	return power
}
