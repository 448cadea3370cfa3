package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// directGridDFT is the brute-force reference: X_k = Σ x[i]·e^{−j(ω0+k·dω)i}.
func directGridDFT(x []complex128, omega0, domega float64, points int) []complex128 {
	out := make([]complex128, points)
	for k := 0; k < points; k++ {
		w := omega0 + float64(k)*domega
		var sum complex128
		for i, v := range x {
			s, c := math.Sincos(-w * float64(i))
			sum += v * complex(c, s)
		}
		out[k] = sum
	}
	return out
}

func TestZoomDFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for _, tc := range []struct {
		m, points int
		omega0    float64
		domega    float64
	}{
		{307, 65, 0.83, 7.7e-4},
		{307, 65, -2.9, 7.7e-4}, // negative band start
		{128, 33, 3.1407, 1e-3}, // band straddling the Nyquist fold
		{64, 9, 0, 2e-2},
		{1000, 129, 1.5, 1e-4},
	} {
		x := make([]complex128, tc.m)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		var z ZoomDFT
		z.Init(tc.m, tc.points, tc.domega)
		got := make([]complex128, tc.points)
		z.Transform(got, x, tc.omega0)
		want := directGridDFT(x, tc.omega0, tc.domega, tc.points)
		scale := 0.0
		for _, v := range want {
			if a := cmplx.Abs(v); a > scale {
				scale = a
			}
		}
		for k := range got {
			if e := cmplx.Abs(got[k] - want[k]); e > 1e-8*scale {
				t.Fatalf("m=%d points=%d: bin %d differs by %g (scale %g)",
					tc.m, tc.points, k, e, scale)
			}
		}
	}
}

// TestZoomDFTResolvesCloseTone pins the zoom property the FB estimator
// relies on: a tone off the coarse FFT grid is located on the fine grid to
// within one grid step.
func TestZoomDFTResolvesCloseTone(t *testing.T) {
	const m = 307
	const trueOmega = 0.7123456
	x := make([]complex128, m)
	for i := range x {
		s, c := math.Sincos(trueOmega * float64(i))
		x[i] = complex(c, s)
	}
	const points = 65
	const domega = 1e-4
	omega0 := trueOmega - float64(points/2)*domega - 3.3e-5 // off-center start
	var z ZoomDFT
	z.Init(m, points, domega)
	out := make([]complex128, points)
	z.Transform(out, x, omega0)
	bin, _ := PeakBinSq(out)
	got := omega0 + float64(bin)*domega
	if math.Abs(got-trueOmega) > domega {
		t.Errorf("zoom peak at ω=%g, want %g ± %g", got, trueOmega, domega)
	}
}

func TestZoomDFTZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	const m, points = 307, 65
	x := make([]complex128, m)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	var z ZoomDFT
	z.Init(m, points, 7.7e-4)
	dst := make([]complex128, points)
	z.Transform(dst, x, 0.9) // warm-up (plan cache)
	allocs := testing.AllocsPerRun(20, func() {
		z.Transform(dst, x, 1.1)
	})
	if allocs != 0 {
		t.Errorf("ZoomDFT.Transform allocated %v times per run in steady state", allocs)
	}
	// Re-Init at the same geometry must not allocate either (scratch reuse).
	allocs = testing.AllocsPerRun(5, func() {
		z.Init(m, points, 7.7e-4)
	})
	if allocs != 0 {
		t.Errorf("ZoomDFT.Init allocated %v times per run at a warm geometry", allocs)
	}
}

func TestFoldFrequency(t *testing.T) {
	const rate = 125e3
	for _, tc := range []struct{ in, want float64 }{
		{0, 0},
		{62.5e3, 62.5e3},   // +Nyquist is the closed end of the band
		{-62.5e3, 62.5e3},  // −Nyquist folds to the closed end
		{62.6e3, -62.4e3},  // past +Nyquist wraps negative
		{-62.6e3, 62.4e3},  // past −Nyquist wraps positive
		{125e3 + 10, 10},   // full-rate alias
		{-125e3 - 10, -10}, // negative full-rate alias
		{3 * 125e3, 0},     // multiple wraps
		{2*125e3 + 100, 100},
	} {
		if got := FoldFrequency(tc.in, rate); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("FoldFrequency(%g) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

// BenchmarkZoomGrid times the planned chirp-Z zoom at the FB estimator's
// geometry (m=307 decimated samples, 65 grid points).
func BenchmarkZoomGrid(b *testing.B) {
	rng := rand.New(rand.NewSource(304))
	const m, points = 307, 65
	const omega0, domega = 0.83, 7.7e-4
	x := make([]complex128, m)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dst := make([]complex128, points)
	var z ZoomDFT
	z.Init(m, points, domega)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Transform(dst, x, omega0)
	}
}
