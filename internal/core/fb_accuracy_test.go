package core

import (
	"math"
	"math/rand"
	"testing"

	"softlora/internal/dsp"
	"softlora/internal/lora"
)

// FB accuracy golden harness: the validation gate for the decimated+zoom
// dechirp-FFT fast path (the same role the hierarchical-onset parity suite
// played for PR 2's onset search). It sweeps SF 7–12 × {0, −10, −20} dB ×
// δ spanning ±BW/2 and asserts, cell by cell, that the fast path's error
// stays within the legacy padded-FFT reference's error envelope. FB is the
// paper's core fingerprint metric, so the fast path is only acceptable if
// it is indistinguishable from the estimator it replaces.

// fbCellError runs one estimator over `trials` noise draws of one
// (SF, SNR, δ) cell and returns the mean absolute error in Hz. Errors are
// measured on the alias circle of the estimator's folded output band, so a
// δ at the very edge of ±BW/2 is not penalized for a legitimate fold.
func fbCellError(t *testing.T, est FBEstimator, p lora.Params, seed int64, deltaHz, snrDB float64, trials int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for trial := 0; trial < trials; trial++ {
		iq := chirpAtRate(rng, p, testRate, deltaHz, rng.Float64()*2*math.Pi, snrDB)
		got, err := est.EstimateFB(iq, testRate)
		if err != nil {
			t.Fatalf("%T SF%d δ=%.0f SNR=%.0f: %v", est, p.SF, deltaHz, snrDB, err)
		}
		sum += math.Abs(dsp.FoldFrequency(got.DeltaHz-deltaHz, testRate))
	}
	return sum / float64(trials)
}

// TestFBAccuracyFastWithinLegacyEnvelope is the gate itself: on every cell
// the zoom path's mean error must not exceed the legacy path's by more than
// a small slack (10 Hz absolute or 30 % relative, whichever is larger —
// the two paths project the same noise through different transforms, so
// per-cell errors decorrelate; the slack absorbs that variance plus the
// boxcar's ≤0.6 dB band-edge droop, not a worse estimator), and both must
// stay inside the paper's 120 Hz resolution bound down to −10 dB (150 Hz
// at −20 dB, matching TestDechirpFFTLowSNR's bound for this estimator).
func TestFBAccuracyFastWithinLegacyEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("full SF × SNR × δ sweep is a few seconds; skipped with -short")
	}
	snrs := []float64{0, -10, -20}
	for sf := 7; sf <= 12; sf++ {
		// More draws where chirps are short and cells noisy; fewer where
		// the legacy path's half-megapoint FFTs dominate the runtime.
		trials := 16
		if sf >= 10 {
			trials = 4
		}
		p := lora.DefaultParams(sf)
		deltas := []float64{
			-0.49 * p.Bandwidth, // edge of the fingerprint range
			-0.25 * p.Bandwidth,
			-1234.5, // small off-grid bias (replay-shift scale)
			987.6,
			0.25 * p.Bandwidth,
			0.49 * p.Bandwidth,
		}
		fast := &DechirpFFTEstimator{Params: p}
		legacy := &DechirpFFTEstimator{Params: p, Exhaustive: true}
		for _, snr := range snrs {
			for di, delta := range deltas {
				seed := int64(1000*sf + 100*di + int(-snr) + 3)
				fastErr := fbCellError(t, fast, p, seed, delta, snr, trials)
				legacyErr := fbCellError(t, legacy, p, seed, delta, snr, trials)
				slack := 0.3 * legacyErr
				if slack < 10 {
					slack = 10
				}
				if fastErr > legacyErr+slack {
					t.Errorf("SF%d SNR=%+.0f δ=%+.0f: fast %.2f Hz vs legacy %.2f Hz (slack %.2f)",
						sf, snr, delta, fastErr, legacyErr, slack)
				}
				bound := 120.0
				if snr <= -20 {
					bound = 150
				}
				if fastErr > bound || legacyErr > bound {
					t.Errorf("SF%d SNR=%+.0f δ=%+.0f: error above the %.0f Hz bound (fast %.1f, legacy %.1f)",
						sf, snr, delta, bound, fastErr, legacyErr)
				}
			}
		}
	}
}

// TestFBAccuracyLinearRegressionReference keeps the paper's O(1) estimator
// in the same harness at the SNR where it is valid (§7.1.1 documents its
// low-SNR failure) so all three estimators share one accuracy fixture.
func TestFBAccuracyLinearRegressionReference(t *testing.T) {
	for sf := 7; sf <= 12; sf += 5 { // SF 7 and 12 bracket the range
		p := lora.DefaultParams(sf)
		lr := &LinearRegressionEstimator{Params: p}
		for di, delta := range []float64{-0.25 * p.Bandwidth, -1234.5, 987.6, 0.25 * p.Bandwidth} {
			if e := fbCellError(t, lr, p, int64(2000*sf+di), delta, 25, 2); e > 120 {
				t.Errorf("SF%d δ=%+.0f: linear-regression error %.1f Hz at 25 dB", sf, delta, e)
			}
		}
	}
}

// TestFBAccuracyZoomGridFiner pins the resolution claim behind the fast
// path: its zoom grid spacing must be at least 4× finer than the legacy
// padded FFT's bin width at every SF.
func TestFBAccuracyZoomGridFiner(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for sf := 7; sf <= 12; sf++ {
		p := lora.DefaultParams(sf)
		n := int(p.SamplesPerChirp(testRate))
		est := &DechirpFFTEstimator{Params: p}
		iq := chirpAtRate(rng, p, testRate, -11e3, 1.0, 20)
		if _, err := est.EstimateFB(iq, testRate); err != nil {
			t.Fatal(err)
		}
		paddedBin := testRate / float64(dsp.NextPow2(4*n))
		if est.tone.zoomStep > paddedBin/4+1e-9 {
			t.Errorf("SF%d: zoom step %.3f Hz coarser than padded-bin/4 = %.3f Hz",
				sf, est.tone.zoomStep, paddedBin/4)
		}
	}
}
