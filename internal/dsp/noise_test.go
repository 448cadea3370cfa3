package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGaussianNoisePower(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, p := range []float64{0.1, 1, 10} {
		x := GaussianNoise(rng, 20000, p)
		got := Power(x)
		if math.Abs(got-p) > 0.05*p {
			t.Errorf("power = %f, want %f", got, p)
		}
	}
}

func TestGaussianNoiseZeroMean(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := GaussianNoise(rng, 20000, 1)
	q := make([]float64, len(x))
	for i, v := range x {
		q[i] = imag(v)
	}
	mi := Mean(I(x))
	mq := Mean(q)
	if math.Abs(mi) > 0.02 || math.Abs(mq) > 0.02 {
		t.Errorf("mean = (%f, %f), want ~(0, 0)", mi, mq)
	}
}

func TestColoredNoisePowerNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	x := ColoredNoise(rng, 16384, 2.5)
	got := Power(x)
	if math.Abs(got-2.5) > 1e-9 {
		t.Errorf("power = %f, want 2.5 exactly (normalized)", got)
	}
}

// TestColoredNoiseIsColored compares the average power below and above the
// background's low-pass cutoff (0.25 of the sample rate). The impulsive
// bursts are white, so they lift the stopband: the ratio sits at 2.7–5.4
// over seeds 30–49, where white noise reads ~1.
func TestColoredNoiseIsColored(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	x := ColoredNoise(rng, 8192, 1)
	spec := FFT(x)
	n := len(spec)
	// Compare in-band vs out-of-band average power.
	var inBand, outBand float64
	var inN, outN int
	for k, v := range spec {
		f := math.Abs(BinFrequency(k, n, 1))
		p := real(v)*real(v) + imag(v)*imag(v)
		if f < 0.2 {
			inBand += p
			inN++
		} else if f > 0.3 {
			outBand += p
			outN++
		}
	}
	inBand /= float64(inN)
	outBand /= float64(outN)
	if inBand < 2*outBand {
		t.Errorf("in-band %g not above 2× out-of-band %g", inBand, outBand)
	}
}

func TestColoredNoiseEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	if got := ColoredNoise(rng, 0, 1); got != nil {
		t.Error("expected nil for n=0")
	}
}

// snrAfterNoise scales noise by NoiseForSNR's gain, as the experiment
// drivers do before adding it to a signal, and measures the resulting SNR.
func snrAfterNoise(signal, noise []complex128, snrDB float64) float64 {
	scaled := append([]complex128(nil), noise...)
	ScaleInPlace(scaled, NoiseForSNR(Power(signal), Power(noise), snrDB))
	return 10 * math.Log10(Power(signal)/Power(scaled))
}

func TestAddNoiseSNRAchievesTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	signal := tone(8192, 100, 8192)
	noise := GaussianNoise(rng, 8192, 1)
	for _, snr := range []float64{-20, -5, 0, 10, 30} {
		if gotSNR := snrAfterNoise(signal, noise, snr); math.Abs(gotSNR-snr) > 0.01 {
			t.Errorf("target %f dB, measured %f dB", snr, gotSNR)
		}
	}
}

func TestAddNoiseSNRProperty(t *testing.T) {
	f := func(seed int64, snrRaw int8) bool {
		rng := rand.New(rand.NewSource(seed))
		snr := float64(snrRaw) / 4 // -32..32 dB
		signal := tone(2048, 64, 2048)
		noise := GaussianNoise(rng, 2048, 1)
		return math.Abs(snrAfterNoise(signal, noise, snr)-snr) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A silent noise trace gets a zero gain, not an infinite one, so adding it
// leaves the signal unchanged.
func TestAddNoiseSNRZeroCases(t *testing.T) {
	if g := NoiseForSNR(1, 0, 10); g != 0 {
		t.Errorf("gain for zero noise power = %g, want 0", g)
	}
}

func TestNoiseForSNR(t *testing.T) {
	g := NoiseForSNR(1, 1, 20)
	// Noise power after gain g^2 should be 0.01.
	if math.Abs(g*g-0.01) > 1e-12 {
		t.Errorf("gain^2 = %g, want 0.01", g*g)
	}
	if NoiseForSNR(0, 1, 10) != 0 {
		t.Error("zero signal power should give zero gain")
	}
}
