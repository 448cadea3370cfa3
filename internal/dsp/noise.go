package dsp

import (
	"math"
	"math/rand"
)

// GaussianNoise returns n samples of circular complex white Gaussian noise
// with total (I+Q) average power power. The samples come from a fast
// ziggurat stream seeded off rng, not from rng.NormFloat64 — distributional
// statistics are identical (gated by the stattest bounds) but exact values
// differ from pre-GaussianSource releases.
func GaussianNoise(rng *rand.Rand, n int, power float64) []complex128 {
	out := make([]complex128, n)
	sigma := math.Sqrt(power / 2)
	var g GaussianSource
	g.Seed(rng.Int63())
	for i := range out {
		re, im := g.NormPair()
		out[i] = complex(re*sigma, im*sigma)
	}
	return out
}

// Parameters of the synthetic "real building noise" model used for
// Fig. 14's second curve: low-pass-colored Gaussian background plus sparse
// impulsive interference bursts, the standard model for indoor ISM-band
// noise.
const (
	// coloredCutoffFraction is the background's low-pass cutoff as a
	// fraction of Nyquist.
	coloredCutoffFraction = 0.5
	// coloredImpulseRate is the expected number of impulsive bursts per
	// 1000 samples.
	coloredImpulseRate = 0.5
	// coloredImpulsePowerRatio is the per-burst power relative to the
	// background (≈15 dB hotter).
	coloredImpulsePowerRatio = 30.0
	// coloredImpulseLen is the burst length in samples.
	coloredImpulseLen = 24
)

// ColoredNoise returns n samples of colored, impulsive noise with total
// average power normalized to power.
func ColoredNoise(rng *rand.Rand, n int, power float64) []complex128 {
	if n == 0 {
		return nil
	}
	white := GaussianNoise(rng, n, 1)
	// Color the spectrum with a windowed-sinc low pass at
	// coloredCutoffFraction of Nyquist (sample rate normalized to 1).
	f := LowPassFIR(coloredCutoffFraction*0.5, 1, 101)
	colored := f.Apply(white)
	// Inject impulsive bursts.
	expected := coloredImpulseRate * float64(n) / 1000
	bursts := int(expected)
	if rng.Float64() < expected-float64(bursts) {
		bursts++
	}
	burstSigma := math.Sqrt(coloredImpulsePowerRatio / 2)
	var g GaussianSource
	g.Seed(rng.Int63())
	for b := 0; b < bursts; b++ {
		at := rng.Intn(n) // placement stays on rng; only Gaussian draws moved
		for i := 0; i < coloredImpulseLen && at+i < n; i++ {
			re, im := g.NormPair()
			colored[at+i] += complex(re*burstSigma, im*burstSigma)
		}
	}
	// Normalize to the requested power.
	p := Power(colored)
	if p > 0 {
		ScaleInPlace(colored, math.Sqrt(power/p))
	}
	return colored
}

// NoiseForSNR returns the gain to apply to a noise trace of power np so a
// signal of power sp observes the requested SNR in dB.
func NoiseForSNR(sp, np, snrDB float64) float64 {
	if sp == 0 || np == 0 {
		return 0
	}
	return math.Sqrt(sp / FromdB(snrDB) / np)
}
