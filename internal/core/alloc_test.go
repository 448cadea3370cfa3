package core

import (
	"math"
	"math/rand"
	"testing"

	"softlora/internal/dsp"
	"softlora/internal/lora"
)

// Allocation-regression tests: the planned-DSP refactor made the per-uplink
// hot paths allocation-free in steady state (after one warm-up call sizes
// the scratch). These tests pin that property so later changes cannot
// silently reintroduce per-window allocations.

// chirpAtSNR synthesizes one biased chirp with trailing margin at the given
// SNR, long enough for the single-chirp FB estimators.
func chirpAtSNR(rng *rand.Rand, deltaHz, snrDB float64) []complex128 {
	p := lora.DefaultParams(7)
	spec := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, FrequencyOffset: deltaHz, Phase: 0.4}
	iq := spec.Synthesize(testRate)
	noise := dsp.GaussianNoise(rng, len(iq), 1)
	g := dsp.NoiseForSNR(1, 1, snrDB)
	for i := range iq {
		iq[i] += noise[i] * complex(g, 0)
	}
	return iq
}

func TestDechirpFFTEstimatorZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	iq := chirpAtSNR(rng, -21e3, 30)
	// Both the decimated coarse→zoom fast path and the monolithic
	// padded-FFT reference must stay allocation-free once warm.
	for _, exhaustive := range []bool{false, true} {
		est := &DechirpFFTEstimator{Params: lora.DefaultParams(7), Exhaustive: exhaustive}
		if _, err := est.EstimateFB(iq, testRate); err != nil { // warm-up sizes scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := est.EstimateFB(iq, testRate); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("EstimateFB (exhaustive=%v) allocated %v times per run in steady state", exhaustive, allocs)
		}
	}
	// The zoom fast path must actually be exercising the decimated branch
	// at the test geometry, not degenerating to D=1.
	est := &DechirpFFTEstimator{Params: lora.DefaultParams(7)}
	if _, err := est.EstimateFB(iq, testRate); err != nil {
		t.Fatal(err)
	}
	if est.tone.dec < 2 {
		t.Fatalf("fast path decimation = %d at %g Msps; decimated branch not exercised", est.tone.dec, testRate/1e6)
	}
}

func TestLinearRegressionEstimatorZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	iq := chirpAtSNR(rng, -21e3, 30)
	est := &LinearRegressionEstimator{Params: lora.DefaultParams(7)}
	if _, err := est.EstimateFB(iq, testRate); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := est.EstimateFB(iq, testRate); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("LinearRegressionEstimator.EstimateFB allocated %v times per run in steady state", allocs)
	}
}

func TestDechirpOnsetZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	det := &DechirpOnsetDetector{Params: testParams()}
	iq, _ := frameCapture(t, rng, -22e3, 0.8, 20)
	// The default (hierarchical) detector at the test rate must actually
	// exercise the paths this test pins: the boxcar-decimated coarse scan
	// and the sliding-DFT/Goertzel refinement.
	n := int(det.Params.SamplesPerChirp(testRate))
	if dec := det.coarseDecimation(n, testRate); dec < 2 {
		t.Fatalf("coarse decimation = %d at %g Msps; decimated path not exercised", dec, testRate/1e6)
	}
	if _, err := det.DetectOnset(iq, testRate); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := det.DetectOnset(iq, testRate); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DechirpOnsetDetector.DetectOnset allocated %v times per run in steady state", allocs)
	}
}

// TestDechirpOnsetHierarchyPathsZeroAlloc pins the sliding-DFT/Goertzel
// refinement of the hierarchical search in isolation, allocation-free after
// warm-up. The batched decimated coarse scan is covered by the DetectOnset
// steady-state test above.
func TestDechirpOnsetHierarchyPathsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	det := &DechirpOnsetDetector{Params: testParams()}
	iq, _ := frameCapture(t, rng, -21e3, 1.2, 20)
	n := int(det.Params.SamplesPerChirp(testRate))
	det.ensureScratch(n, testRate)
	det.ensureGlobalDechirp(iq, testRate)
	// Warm-up: sizes the sliding bins and theta buffer.
	det.refineApex(iq, 2*n, n, testRate)
	if allocs := testing.AllocsPerRun(5, func() {
		det.ensureGlobalDechirp(iq, testRate)
		det.refineApex(iq, 2*n, n, testRate)
		det.toneMetric(n, n, 0)
	}); allocs != 0 {
		t.Errorf("sliding-DFT/Goertzel refinement allocated %v times per run", allocs)
	}
}

// TestDechirpExhaustiveOnsetZeroAllocSteadyState keeps the brute-force
// reference path allocation-free too, so parity runs do not skew
// benchmarks with GC noise.
func TestDechirpExhaustiveOnsetZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(208))
	det := &DechirpOnsetDetector{Params: testParams(), Exhaustive: true}
	iq, _ := frameCapture(t, rng, -22e3, 0.8, 20)
	if _, err := det.DetectOnset(iq, testRate); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := det.DetectOnset(iq, testRate); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("exhaustive DetectOnset allocated %v times per run in steady state", allocs)
	}
}

func TestUpDownEstimatorZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	est := &UpDownEstimator{Params: testParams()}
	iq, onset := frameCapture(t, rng, -20e3, 0.3, 25)
	if _, err := est.Estimate(iq, int(onset), testRate); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := est.Estimate(iq, int(onset), testRate); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("UpDownEstimator.Estimate allocated %v times per run in steady state", allocs)
	}
}

// TestScratchResultsMatchFreshDetector guards the scratch reuse itself:
// running a warm detector on a second, different capture must match a
// freshly built detector bit for bit.
func TestScratchResultsMatchFreshDetector(t *testing.T) {
	rngA := rand.New(rand.NewSource(205))
	warm := &DechirpOnsetDetector{Params: testParams()}
	iq1, _ := frameCapture(t, rngA, -22e3, 0.8, 10)
	iq2, _ := frameCapture(t, rngA, 15e3, 2.1, 10)
	if _, err := warm.DetectOnset(iq1, testRate); err != nil {
		t.Fatal(err)
	}
	got, err := warm.DetectOnset(iq2, testRate)
	if err != nil {
		t.Fatal(err)
	}
	fresh := &DechirpOnsetDetector{Params: testParams()}
	want, err := fresh.DetectOnset(iq2, testRate)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("warm detector: %+v, fresh detector: %+v", got, want)
	}

	est := &DechirpFFTEstimator{Params: testParams()}
	chirp := chirpAtSNR(rand.New(rand.NewSource(206)), -9e3, 20)
	if _, err := est.EstimateFB(iq1[:len(chirp)], testRate); err != nil {
		t.Fatal(err)
	}
	gotFB, err := est.EstimateFB(chirp, testRate)
	if err != nil {
		t.Fatal(err)
	}
	wantFB, err := (&DechirpFFTEstimator{Params: testParams()}).EstimateFB(chirp, testRate)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotFB.DeltaHz-wantFB.DeltaHz) != 0 || gotFB.Quality != wantFB.Quality {
		t.Errorf("warm estimator: %+v, fresh estimator: %+v", gotFB, wantFB)
	}
}
