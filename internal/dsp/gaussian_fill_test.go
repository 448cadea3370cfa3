package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// TestGaussianFillMatchesSerialStream pins Fill and Norm to the serial
// drawOne stream with ==: 64 seeds × 160,000 draws (10.24M in all), read
// through Fill calls of odd sizes with a few Norm draws interleaved, so
// Fill starts with 0 to 255 draws buffered and the pair loop starts on
// either parity of the stream.
func TestGaussianFillMatchesSerialStream(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const perSeed = 160_000
	buf := make([]float64, 3001)
	for seed := int64(0); seed < 64; seed++ {
		var ref, g GaussianSource
		ref.Seed(seed*0x5851f42d + 1)
		g.Seed(seed*0x5851f42d + 1)
		for drawn := 0; drawn < perSeed; {
			for k := rng.Intn(4); k > 0; k-- {
				if got, want := g.Norm(), ref.drawOne(); got != want {
					t.Fatalf("seed %d draw %d: Norm = %v, serial stream %v", seed, drawn, got, want)
				}
				drawn++
			}
			n := rng.Intn(len(buf) + 1)
			g.Fill(buf[:n])
			for i, got := range buf[:n] {
				if want := ref.drawOne(); got != want {
					t.Fatalf("seed %d draw %d (Fill of %d, index %d): %v, serial stream %v", seed, drawn+i, n, i, got, want)
				}
			}
			drawn += n
		}
	}
}

func TestGaussianFillZeroAlloc(t *testing.T) {
	var g GaussianSource
	g.Seed(5)
	dst := make([]float64, 255)
	g.Norm() // leave draws buffered, so Fill also drains the buffer
	if allocs := testing.AllocsPerRun(100, func() { g.Fill(dst) }); allocs != 0 {
		t.Fatalf("Fill allocated %.1f times per call, want 0", allocs)
	}
}

// TestWedgeSqueezeMatchesExact pins wedgeBelow's decisions to the exact
// y < math.Exp(-0.5*x*x) on every wedge layer, the cap layer 127
// included: x over lattice points of the layer's wedge (its top edge, its
// bottom edge at zigX[i], the one-step-inside miss, random points) and y
// uniform over the wedge, uniform in a band of the bracket's width plus
// four margins around the curve, and within a few ulps of it.
func TestWedgeSqueezeMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	checked, exactBand := 0, 0
	for i := uint64(1); i < 128; i++ {
		kMin := zigK[i] // the first lattice point to miss the rectangle
		js := []int64{kMin, kMin + 1, 1 << 31, -kMin, -(1 << 31)}
		for n := 0; n < 300; n++ {
			j := kMin + rng.Int63n(1<<31-kMin+1)
			if rng.Intn(2) == 0 {
				j = -j
			}
			js = append(js, j)
		}
		tMax := 0.5 * (zigX[i]*zigX[i] - zigX[i+1]*zigX[i+1])
		band := zigF[i+1]*tMax*tMax*tMax*tMax/24 + 4*zigSqueeze
		for _, j := range js {
			x := float64(j) * zigW[i]
			e := math.Exp(-0.5 * x * x)
			ys := []float64{e, math.Nextafter(e, 0), math.Nextafter(e, 2),
				e - zigSqueeze, e + zigSqueeze, e - 2*zigSqueeze, e + 2*zigSqueeze}
			for u := 1.0; u < 1e7; u *= 10 {
				ys = append(ys, e+u*1e-16, e-u*1e-16)
			}
			for n := 0; n < 20; n++ {
				ys = append(ys,
					zigF[i]+rng.Float64()*(zigF[i+1]-zigF[i]),
					e+(2*rng.Float64()-1)*band)
			}
			for _, y := range ys {
				want := y < e
				if got := wedgeBelow(i, x, y); got != want {
					t.Fatalf("layer %d x %v y %v: wedgeBelow = %v, exact %v (curve %v)", i, x, y, got, want, e)
				}
				if math.Abs(y-e) <= 2*zigSqueeze {
					exactBand++
				}
				checked++
			}
		}
	}
	t.Logf("%d decisions checked, %d within two margins of the curve", checked, exactBand)
}
