package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"softlora/internal/dsp"
	"softlora/internal/lora"
)

// frameCapture modulates a minimal frame with lead-in noise and returns the
// capture plus the exact onset sample position (float).
func frameCapture(t *testing.T, rng *rand.Rand, deltaHz, theta, snrDB float64) (iq []complex128, onset float64) {
	t.Helper()
	p := lora.DefaultParams(7)
	f := lora.Frame{Params: p, Payload: []byte{0x42}}
	lead := 1.5e-3
	dur, err := f.ModulatedDuration()
	if err != nil {
		t.Fatal(err)
	}
	iq = make([]complex128, int((lead+dur+1e-3)*testRate))
	err = f.ModulateAt(iq, lora.Impairments{FrequencyBias: deltaHz, InitialPhase: theta}, testRate, lead)
	if err != nil {
		t.Fatal(err)
	}
	noise := dsp.GaussianNoise(rng, len(iq), 1)
	g := dsp.NoiseForSNR(1, 1, snrDB)
	for i := range iq {
		iq[i] += noise[i] * complex(g, 0)
	}
	return iq, lead * testRate
}

func TestUpDownRecoversBias(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	est := &UpDownEstimator{Params: lora.DefaultParams(7)}
	for _, delta := range []float64{-25e3, -620, 0, 15e3} {
		iq, onset := frameCapture(t, rng, delta, 0.9, 30)
		res, err := est.Estimate(iq, int(onset), testRate)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.DeltaHz-delta) > 60 {
			t.Errorf("δ = %f: estimated %f", delta, res.DeltaHz)
		}
	}
}

func TestUpDownImmuneToOnsetMisalignment(t *testing.T) {
	// The headline property: feed the estimator a deliberately wrong onset
	// and the bias estimate must not move, while the single-chirp
	// estimator degrades by k·Δτ.
	rng := rand.New(rand.NewSource(141))
	const delta = -21e3
	iq, onset := frameCapture(t, rng, delta, 1.4, 30)
	p := lora.DefaultParams(7)
	ud := &UpDownEstimator{Params: p}
	lr := &LinearRegressionEstimator{Params: p}
	n := int(p.SamplesPerChirp(testRate))
	k := p.Bandwidth * p.Bandwidth / float64(p.ChipsPerSymbol())
	for _, misalign := range []int{-24, -8, 8, 24} { // samples
		at := int(onset) + misalign
		udRes, err := ud.Estimate(iq, at, testRate)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(udRes.DeltaHz-delta) > 80 {
			t.Errorf("misalign %d: up/down δ = %f, want %f", misalign, udRes.DeltaHz, delta)
		}
		// The timing correction must expose the misalignment.
		wantCorr := -float64(misalign) / testRate
		if math.Abs(udRes.TimingCorrection-wantCorr) > 2.5/testRate {
			t.Errorf("misalign %d: correction = %g, want %g", misalign, udRes.TimingCorrection, wantCorr)
		}
		// Single-chirp estimator absorbs k·Δτ.
		lrRes, err := lr.EstimateFB(iq[at+n:at+2*n], testRate)
		if err != nil {
			t.Fatal(err)
		}
		inducedErr := math.Abs(lrRes.DeltaHz - delta)
		wantInduced := k * math.Abs(float64(misalign)) / testRate
		if math.Abs(inducedErr-wantInduced) > wantInduced/2+60 {
			t.Errorf("misalign %d: LR induced error %f, expected ≈ %f", misalign, inducedErr, wantInduced)
		}
	}
}

func TestUpDownPropertyRandomMisalignment(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	est := &UpDownEstimator{Params: lora.DefaultParams(7)}
	iq, onset := frameCapture(t, rng, -19.5e3, 0.2, 25)
	f := func(misRaw int8) bool {
		mis := int(misRaw) / 4 // ±32 samples
		res, err := est.Estimate(iq, int(onset)+mis, testRate)
		if err != nil {
			return false
		}
		return math.Abs(res.DeltaHz+19.5e3) < 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestUpDownLowSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	est := &UpDownEstimator{Params: lora.DefaultParams(7)}
	var sum float64
	const trials = 5
	for i := 0; i < trials; i++ {
		iq, onset := frameCapture(t, rng, -22e3, rng.Float64()*2*math.Pi, -15)
		res, err := est.Estimate(iq, int(onset), testRate)
		if err != nil {
			t.Fatal(err)
		}
		sum += math.Abs(res.DeltaHz + 22e3)
	}
	if avg := sum / trials; avg > 150 {
		t.Errorf("mean error at −15 dB = %.0f Hz", avg)
	}
}

func TestUpDownErrors(t *testing.T) {
	est := &UpDownEstimator{Params: lora.DefaultParams(7)}
	if _, err := est.Estimate(make([]complex128, 100), 0, testRate); err == nil {
		t.Error("expected error for capture without SFD")
	}
	if _, err := est.Estimate(make([]complex128, 100), -1, testRate); err == nil {
		t.Error("expected error for negative onset")
	}
	bad := &UpDownEstimator{Params: lora.Params{SF: 99}}
	if _, err := bad.Estimate(nil, 0, testRate); err == nil {
		t.Error("expected error for invalid params")
	}
}

func TestUpDownDiagnosticsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	est := &UpDownEstimator{Params: lora.DefaultParams(7)}
	iq, onset := frameCapture(t, rng, -20e3, 0.5, 30)
	res, err := est.Estimate(iq, int(onset), testRate)
	if err != nil {
		t.Fatal(err)
	}
	if got := (res.FUp + res.FDown) / 2; math.Abs(got-res.DeltaHz) > 1e-9 {
		t.Error("DeltaHz inconsistent with raw tones")
	}
	k := 125e3 * 125e3 / 128
	if got := -(res.FUp - res.FDown) / (2 * k); math.Abs(got-res.TimingCorrection) > 1e-15 {
		t.Error("TimingCorrection inconsistent with raw tones")
	}
}

// paddedTone is the up/down estimator's former tone readout, kept as the
// oracle its coarse→zoom readout is checked against: dechirp one
// chirp-long segment against the up or down chirp, take a 4×-zero-padded
// full-rate FFT, and interpolate the peak parabolically.
func paddedTone(t *testing.T, p lora.Params, seg []complex128, sampleRate float64, down bool) float64 {
	t.Helper()
	n := int(p.SamplesPerChirp(sampleRate))
	ref := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, Down: down}
	phase := make([]float64, n)
	for i := range phase {
		phase[i] = ref.PhaseAt(float64(i) / sampleRate)
	}
	var sc dechirpScratch
	sc.Init(p, n, sampleRate, 4, phase)
	spec := sc.Dechirp(seg[:n])
	bin, magSq := dsp.PeakBinSq(spec)
	if magSq == 0 {
		t.Fatal("padded oracle: empty spectrum")
	}
	frac := dsp.InterpolatePeak(spec, bin)
	return dsp.BinFrequency(bin, len(spec), sampleRate) + frac*sampleRate/float64(len(spec))
}

// TestUpDownTonesMatchPaddedOracle bounds both raw tones of the coarse→zoom
// readout against the padded-FFT oracle on the same segments, over random
// biases (±25 kHz), SNRs from −5 to +13 dB and onset misalignments up to
// ±32 samples (±1.6 kHz of tone shift). The two readouts interpolate on
// different grids (the oracle's bins are 146 Hz, the zoom grid's 36.6 Hz),
// and the boxcar decimation folds some out-of-band noise into the zoom
// stage's series, so they differ by a few hertz. The bound, 10 Hz per
// tone, is twice the largest difference seen over 2,000 draws of this
// generator (4.7 Hz).
func TestUpDownTonesMatchPaddedOracle(t *testing.T) {
	const boundHz = 10
	rng := rand.New(rand.NewSource(145))
	p := lora.DefaultParams(7)
	est := &UpDownEstimator{Params: p}
	spc := p.SamplesPerChirp(testRate)
	n := int(spc)
	var worstUp, worstDown float64
	for trial := 0; trial < 60; trial++ {
		delta := (rng.Float64()*2 - 1) * 25e3
		snr := -5 + rng.Float64()*18
		mis := rng.Intn(65) - 32
		iq, onset := frameCapture(t, rng, delta, rng.Float64()*2*math.Pi, snr)
		at := int(onset) + mis
		res, err := est.Estimate(iq, at, testRate)
		if err != nil {
			t.Fatal(err)
		}
		upStart := at + int(math.Round(spc))
		downStart := at + int(math.Round(float64(p.PreambleChirps+2)*spc))
		wantUp := paddedTone(t, p, iq[upStart:upStart+n], testRate, false)
		wantDown := paddedTone(t, p, iq[downStart:downStart+n], testRate, true)
		dUp, dDown := math.Abs(res.FUp-wantUp), math.Abs(res.FDown-wantDown)
		worstUp, worstDown = math.Max(worstUp, dUp), math.Max(worstDown, dDown)
		if dUp > boundHz || dDown > boundHz {
			t.Errorf("δ=%+.0f Hz, %.1f dB, misalignment %+d: FUp %.1f vs oracle %.1f, FDown %.1f vs oracle %.1f (bound %d Hz)",
				delta, snr, mis, res.FUp, wantUp, res.FDown, wantDown, boundHz)
		}
	}
	t.Logf("largest deviation from the padded oracle: FUp %.2f Hz, FDown %.2f Hz", worstUp, worstDown)
}
