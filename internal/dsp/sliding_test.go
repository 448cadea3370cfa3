package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// directDFT evaluates Σ x[i]·e^{−jωi} by brute force.
func directDFT(x []complex128, omega float64) complex128 {
	var sum complex128
	for i, v := range x {
		sum += v * cmplx.Exp(complex(0, -omega*float64(i)))
	}
	return sum
}

func TestGoertzelDFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randComplex(rng, 301)
	// FFT-grid frequencies and arbitrary off-grid ones.
	omegas := []float64{0, 2 * math.Pi / 301 * 17, 0.4567, 1.9, math.Pi, 5.1, -0.7}
	for _, w := range omegas {
		got := GoertzelDFT(x, w)
		want := directDFT(x, w)
		if d := cmplx.Abs(got - want); d > 1e-8 {
			t.Errorf("omega=%g: got %v, want %v (|diff|=%g)", w, got, want, d)
		}
	}
	if got := GoertzelDFT(nil, 1.0); got != 0 {
		t.Errorf("empty input: got %v, want 0", got)
	}
}

func TestGoertzelDFTMatchesFFTBins(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n = 256
	x := randComplex(rng, n)
	spec := FFT(x)
	for _, k := range []int{0, 1, 100, 255} {
		w := 2 * math.Pi * float64(k) / n
		got := GoertzelDFT(x, w)
		if d := cmplx.Abs(got - spec[k]); d > 1e-8 {
			t.Errorf("bin %d: goertzel %v, fft %v", k, got, spec[k])
		}
	}
}

func TestSlidingDFTMatchesGoertzel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := randComplex(rng, 2000)
	const n = 600
	thetas := []float64{0.1, 0.7345, 2.9, -1.3}
	var s SlidingDFT
	s.Reset(x, 0, n, thetas)
	// Walk the window forward in uneven hops and cross-check every bin
	// against a fresh Goertzel evaluation of the same window.
	a := 0
	for _, hop := range []int{1, 7, 13, 250, 500} {
		s.Advance(x, hop)
		a += hop
		for k, th := range thetas {
			want := GoertzelDFT(x[a:a+n], th)
			if d := cmplx.Abs(s.Sum(k) - want); d > 1e-7 {
				t.Errorf("start %d bin %d: sliding %v, direct %v (|diff|=%g)", a, k, s.Sum(k), want, d)
			}
		}
	}
}

func TestSlidingDFTMaxMagSq(t *testing.T) {
	// A pure tone: the bin at the tone frequency must dominate the others.
	const n = 512
	const tone = 0.5
	x := make([]complex128, 2*n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, tone*float64(i)))
	}
	var s SlidingDFT
	s.Reset(x, 0, n, []float64{tone, tone + 0.3})
	onTone := real(s.Sum(0))*real(s.Sum(0)) + imag(s.Sum(0))*imag(s.Sum(0))
	if got := s.MaxMagSq(); math.Abs(got-onTone) > 1e-6*onTone {
		t.Errorf("MaxMagSq = %g, want the on-tone bin %g", got, onTone)
	}
	s.Advance(x, n/2)
	if got := s.MaxMagSq(); math.Abs(got-float64(n)*float64(n)) > 1e-3*float64(n*n) {
		t.Errorf("after slide MaxMagSq = %g, want ~%d", got, n*n)
	}
}

func TestSlidingDFTZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x := randComplex(rng, 4000)
	thetas := []float64{0.3, 1.1, 2.2}
	var s SlidingDFT
	s.Reset(x, 0, 1024, thetas) // warm-up sizes the slices
	allocs := testing.AllocsPerRun(50, func() {
		s.Reset(x, 0, 1024, thetas)
		s.Advance(x, 64)
		_ = s.MaxMagSq()
	})
	if allocs != 0 {
		t.Errorf("SlidingDFT Reset/Advance allocated %v times per run in steady state", allocs)
	}
}
