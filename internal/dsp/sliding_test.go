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

// TestGoertzelManyBitIdentical pins GoertzelMany's contract: every output
// equals GoertzelDFT at the same frequency bit for bit. The frequency
// counts 0–10 run every short-last-group case several times over, and the
// lengths cover the empty window, the one- and two-sample recurrences and
// the SF7 chirp at 2.4 Msps.
func TestGoertzelManyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{0, 1, 2, 2457} {
		x := randComplex(rng, n)
		for k := 0; k <= 10; k++ {
			omegas := make([]float64, k)
			for i := range omegas {
				omegas[i] = (rng.Float64()*2 - 1) * math.Pi
			}
			dst := make([]complex128, k+1)
			sentinel := complex(7, -7)
			dst[k] = sentinel
			GoertzelMany(dst, x, omegas)
			for i, w := range omegas {
				if want := GoertzelDFT(x, w); dst[i] != want {
					t.Errorf("n=%d k=%d: frequency %d: GoertzelMany %v, GoertzelDFT %v", n, k, i, dst[i], want)
				}
			}
			if dst[k] != sentinel {
				t.Errorf("n=%d k=%d: wrote past the last frequency", n, k)
			}
		}
	}
}

func TestGoertzelManyZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	x := randComplex(rng, 2457)
	omegas := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	dst := make([]complex128, len(omegas))
	if allocs := testing.AllocsPerRun(10, func() { GoertzelMany(dst, x, omegas) }); allocs != 0 {
		t.Errorf("GoertzelMany allocated %v times per run", allocs)
	}
}

// BenchmarkGoertzelMany times the onset refinement's nine-tone readout of
// one SF7 chirp window at 2.4 Msps, as one GoertzelMany call and as nine
// GoertzelDFT calls.
func BenchmarkGoertzelMany(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	x := randComplex(rng, 2457)
	omegas := make([]float64, 9)
	for i := range omegas {
		omegas[i] = 0.3 + 0.01*float64(i)
	}
	dst := make([]complex128, len(omegas))
	b.Run("many", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GoertzelMany(dst, x, omegas)
		}
	})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, w := range omegas {
				dst[k] = GoertzelDFT(x, w)
			}
		}
	})
}
