package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

// exactSample is the closed-form reference the oscillators must track.
func exactSample(amp, phase0, f, k, dt float64, i int) complex128 {
	t := float64(i) * dt
	s, c := math.Sincos(phase0 + 2*math.Pi*(f*t+0.5*k*t*t))
	return complex(amp*c, amp*s)
}

// phaseErr returns |arg(got · conj(want))| — the phase discrepancy
// independent of magnitude.
func phaseErr(got, want complex128) float64 {
	return math.Abs(cmplx.Phase(got * cmplx.Conj(want)))
}

// TestOscillatorDriftAgainstSincos is the recurrence accuracy contract: a
// chirp-rate oscillator run over a full SF 7–12 chirp at the SDR rate, with
// realistic oscillator offsets, stays within 1e-9 rad of the closed-form
// phase and within 1e-9 relative magnitude — the renormalization (exact
// re-seed every OscRenormInterval samples) bounds the error per block.
func TestOscillatorDriftAgainstSincos(t *testing.T) {
	const rate = 2.4e6
	const w = 125e3
	for sf := 7; sf <= 12; sf++ {
		n := float64(int(1) << sf)
		k := w * w / n
		total := int(n / w * rate) // samples in one chirp
		for _, delta := range []float64{-36e3, 0, 17.3e3} {
			f0 := -w/2 + delta
			osc := NewOscillator(1, 0.8, f0, k, 1/rate)
			var maxPhase, maxMag float64
			for i := 0; i < total; i++ {
				got := osc.Next()
				want := exactSample(1, 0.8, f0, k, 1/rate, i)
				if pe := phaseErr(got, want); pe > maxPhase {
					maxPhase = pe
				}
				if me := math.Abs(cmplx.Abs(got) - 1); me > maxMag {
					maxMag = me
				}
			}
			if maxPhase > 1e-9 {
				t.Errorf("SF%d δ=%g: max phase error %.3g rad, want < 1e-9", sf, delta, maxPhase)
			}
			if maxMag > 1e-9 {
				t.Errorf("SF%d δ=%g: max magnitude drift %.3g, want < 1e-9", sf, delta, maxMag)
			}
		}
	}
}

func TestRotatorDriftAgainstSincos(t *testing.T) {
	const dt = 1 / 2.4e6
	for _, f := range []float64{-743, 0, 22.8e3, 1.1e6} {
		rot := NewRotator(1, 1.3, f, dt)
		var maxPhase float64
		for i := 0; i < 100_000; i++ {
			got := rot.Next()
			want := exactSample(1, 1.3, f, 0, dt, i)
			if pe := phaseErr(got, want); pe > maxPhase {
				maxPhase = pe
			}
		}
		if maxPhase > 1e-9 {
			t.Errorf("f=%g: max phase error %.3g rad, want < 1e-9", f, maxPhase)
		}
	}
}

// TestOscillatorBatchMethodsMatchNext pins the chunked batch entry point
// (AddTo and its re-seed boundaries) bit-for-bit against the per-sample
// Next sequence, across split calls and onto a non-zero destination.
func TestOscillatorBatchMethodsMatchNext(t *testing.T) {
	const n = 3 * OscRenormInterval / 2 // crosses one re-seed boundary
	mk := func() Oscillator { return NewOscillator(0.7, 0.2, -30e3, 1.19e8, 1/2.4e6) }

	ref := mk()
	want := make([]complex128, n)
	for i := range want {
		want[i] = ref.Next()
	}

	add := make([]complex128, n)
	o := mk()
	o.AddTo(add[:100])
	o.AddTo(add[100:]) // split calls must continue seamlessly
	for i := range add {
		if add[i] != want[i] {
			t.Fatalf("AddTo[%d] = %v, want %v", i, add[i], want[i])
		}
	}

	base := make([]complex128, n)
	for i := range base {
		base[i] = complex(float64(i%5)-2, 1)
	}
	sum := make([]complex128, n)
	copy(sum, base)
	o = mk()
	o.AddTo(sum)
	for i := range sum {
		if sum[i] != base[i]+want[i] {
			t.Fatalf("AddTo onto signal [%d] = %v, want %v", i, sum[i], base[i]+want[i])
		}
	}
}

func TestRotatorBatchMethodsMatchNext(t *testing.T) {
	const n = 2*OscRenormInterval + 37
	mk := func() Rotator { return NewRotator(1.5, -0.4, 9.7e3, 1/2.4e6) }

	ref := mk()
	want := make([]complex128, n)
	for i := range want {
		want[i] = ref.Next()
	}

	src := make([]complex128, n)
	for i := range src {
		src[i] = complex(1, float64(i%3))
	}
	check := func(name string, got []complex128) {
		t.Helper()
		for i := range got {
			// MulInto's two-lane unroll rounds differently from the scalar
			// recurrence by a few ulp; the re-seed bounds both identically.
			if d := cmplx.Abs(got[i] - src[i]*want[i]); d > 1e-12 {
				t.Fatalf("%s[%d] = %v, want %v (Δ %g)", name, i, got[i], src[i]*want[i], d)
			}
		}
	}

	out := make([]complex128, n)
	o := mk()
	o.MulInto(out[:101], src[:101]) // odd split: the next call starts on the other lane
	o.MulInto(out[101:], src[101:])
	check("split MulInto", out)

	inplace := make([]complex128, n)
	copy(inplace, src)
	o = mk()
	o.MulInto(inplace, inplace) // in-place rotation is allowed
	check("in-place MulInto", inplace)
}

func TestOscillatorZeroAlloc(t *testing.T) {
	dst := make([]complex128, 4096)
	src := make([]complex128, 4096)
	osc := NewOscillator(1, 0, -20e3, 1.19e8, 1/2.4e6)
	rot := NewRotator(1, 0, -20e3, 1/2.4e6)
	if allocs := testing.AllocsPerRun(10, func() {
		osc.AddTo(dst)
		rot.MulInto(dst, src)
	}); allocs != 0 {
		t.Errorf("oscillator batch methods allocated %v times per run", allocs)
	}
}

func BenchmarkOscillatorAddTo(b *testing.B) {
	const n = 4096
	dst := make([]complex128, n)
	osc := NewOscillator(1, 0, -30e3, 1.19e8, 1/2.4e6)
	b.SetBytes(n * 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		osc.AddTo(dst)
	}
}

func BenchmarkRotatorMulInto(b *testing.B) {
	const n = 4096
	dst := make([]complex128, n)
	src := make([]complex128, n)
	for i := range src {
		src[i] = complex(1, 1)
	}
	rot := NewRotator(1, 0, -20e3, 1/2.4e6)
	b.SetBytes(n * 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rot.MulInto(dst, src)
	}
}
