package dsp_test

import (
	"math"
	"math/rand"
	"testing"

	"softlora/internal/dsp"
	"softlora/internal/stattest"
)

// The drawn sequence differs from math/rand's NormFloat64 by design; the
// distributional gate in stattest is the contract instead.
func TestGaussianSourceStatistics(t *testing.T) {
	var g dsp.GaussianSource
	g.Seed(1)
	x := make([]float64, 1<<20)
	for i := range x {
		x[i] = g.Norm()
	}
	stattest.CheckGaussian(t, x, 1)
}

func TestGaussianSourceSeedDeterminism(t *testing.T) {
	var a, b dsp.GaussianSource
	// 1000 draws cross several 256-sample refill boundaries; the stream must
	// not depend on where the buffer edges land.
	a.Seed(42)
	want := make([]float64, 1000)
	for i := range want {
		want[i] = a.Norm()
	}
	// b consumes a few values under a different seed first: Seed must fully
	// reset, including discarding buffered draws mid-block.
	b.Seed(7)
	for i := 0; i < 13; i++ {
		b.Norm()
	}
	b.Seed(42)
	for i, w := range want {
		if got := b.Norm(); got != w {
			t.Fatalf("draw %d: got %v, want %v after reseed", i, got, w)
		}
	}
	// NormPair is just two stream draws in order.
	b.Seed(42)
	for i := 0; i < len(want)-1; i += 2 {
		re, im := b.NormPair()
		if re != want[i] || im != want[i+1] {
			t.Fatalf("NormPair at %d: got (%v, %v), want (%v, %v)", i, re, im, want[i], want[i+1])
		}
	}
	// Different seeds must give different streams.
	b.Seed(43)
	same := 0
	for i := 0; i < 100; i++ {
		if b.Norm() == want[i] {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 42 and 43 share %d of 100 draws; streams not independent", same)
	}
	// The zero value must behave exactly like Seed(0), not emit a zeroed
	// buffer.
	var z dsp.GaussianSource
	b.Seed(0)
	for i := 0; i < 300; i++ {
		if got, w := z.Norm(), b.Norm(); got != w {
			t.Fatalf("zero-value draw %d: got %v, want %v", i, got, w)
		}
	}
}

func TestGaussianSourceZeroAlloc(t *testing.T) {
	var g dsp.GaussianSource
	g.Seed(5)
	g.Norm() // pay one-time warmup outside the measured region
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1024; i++ {
			sink += g.Norm()
		}
	})
	if allocs != 0 {
		t.Fatalf("Norm allocated %.1f times per 1024 draws, want 0", allocs)
	}
	_ = sink
}

// BenchmarkGaussianSource reports ns per draw through Norm and through
// Fill in 256-draw blocks (the SDR quantizer's dither block); both read the
// same stream.
func BenchmarkGaussianSource(b *testing.B) {
	b.Run("norm", func(b *testing.B) {
		var g dsp.GaussianSource
		g.Seed(1)
		var sink float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += g.Norm()
		}
		_ = sink
	})
	b.Run("fill", func(b *testing.B) {
		var g dsp.GaussianSource
		g.Seed(1)
		var blk [256]float64
		b.ReportAllocs()
		for i := 0; i < b.N; i += len(blk) {
			g.Fill(blk[:min(len(blk), b.N-i)])
		}
	})
}

// Call-site share of the parity-of-statistics gate: GaussianNoise now draws
// from the ziggurat source, so its per-component statistics must match the
// requested circular Gaussian power.
func TestGaussianNoiseStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, power = 1 << 17, 2.5
	x := dsp.GaussianNoise(rng, n, power)
	comps := make([]float64, 0, 2*n)
	for _, v := range x {
		comps = append(comps, real(v), imag(v))
	}
	stattest.CheckGaussian(t, comps, math.Sqrt(power/2))
}
