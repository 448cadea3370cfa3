package core

import (
	"math"
	"math/rand"
	"testing"

	"softlora/internal/dsp"
	"softlora/internal/lora"
)

const testRate = 2.4e6

// chirpCapture builds a capture with noiseLead seconds of noise followed by
// one SF7 up chirp with the given impairments, at the requested SNR (dB).
func chirpCapture(rng *rand.Rand, noiseLead, snrDB, deltaHz, theta float64) (iq []complex128, onsetSample float64) {
	p := lora.DefaultParams(7)
	spec := lora.ChirpSpec{
		SF:              p.SF,
		Bandwidth:       p.Bandwidth,
		FrequencyOffset: deltaHz,
		Phase:           theta,
	}
	lead := int(noiseLead * testRate)
	// Place the onset at a fractional sample to exercise the error upper
	// bound like the paper (real onsets fall between samples).
	frac := rng.Float64()
	total := lead + int(spec.Duration()*testRate) + 64
	iq = make([]complex128, total)
	onset := (float64(lead) + frac) / testRate
	spec.AddTo(iq, testRate, onset)
	noise := dsp.GaussianNoise(rng, total, 1)
	sigPower := 1.0 // unit-amplitude chirp
	g := dsp.NoiseForSNR(sigPower, 1, snrDB)
	for i := range iq {
		iq[i] += noise[i] * complex(g, 0)
	}
	return iq, onset * testRate
}

func TestAICDetectorHighSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 10; trial++ {
		iq, want := chirpCapture(rng, 2e-3, 40, -22.8e3, rng.Float64()*2*math.Pi)
		for _, comp := range []Component{ComponentI, ComponentQ} {
			det := &AICDetector{Component: comp}
			got, err := det.DetectOnset(iq, testRate)
			if err != nil {
				t.Fatal(err)
			}
			// Paper Table 2: AIC error upper bound < 2 µs at 2.4 Msps.
			errUs := math.Abs(float64(got.Sample)-want) / testRate * 1e6
			if errUs > 2 {
				t.Errorf("trial %d comp %d: AIC error %.2f µs, want < 2", trial, comp, errUs)
			}
		}
	}
}

func TestEnvelopeDetectorHighSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 10; trial++ {
		iq, want := chirpCapture(rng, 2e-3, 40, -20e3, rng.Float64()*2*math.Pi)
		det := &EnvelopeDetector{SmoothLen: 8}
		got, err := det.DetectOnset(iq, testRate)
		if err != nil {
			t.Fatal(err)
		}
		// Paper Table 2: envelope error upper bound ≈ 2-10 µs.
		errUs := math.Abs(float64(got.Sample)-want) / testRate * 1e6
		if errUs > 12 {
			t.Errorf("trial %d: envelope error %.2f µs, want < 12", trial, errUs)
		}
	}
}

func TestAICBeatsEnvelope(t *testing.T) {
	// Paper Table 2's headline: the AIC detector is more accurate.
	rng := rand.New(rand.NewSource(92))
	var aicSum, envSum float64
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		iq, want := chirpCapture(rng, 2e-3, 25, -22e3, rng.Float64()*2*math.Pi)
		aic := &AICDetector{}
		env := &EnvelopeDetector{SmoothLen: 8}
		a, err := aic.DetectOnset(iq, testRate)
		if err != nil {
			t.Fatal(err)
		}
		e, err := env.DetectOnset(iq, testRate)
		if err != nil {
			t.Fatal(err)
		}
		aicSum += math.Abs(float64(a.Sample) - want)
		envSum += math.Abs(float64(e.Sample) - want)
	}
	if aicSum > envSum {
		t.Errorf("AIC mean error %.1f samples > envelope %.1f", aicSum/trials, envSum/trials)
	}
}

func TestAICDetectorBuildingSNRRange(t *testing.T) {
	// Fig. 15: sub-10 µs signal timestamping across the building, whose
	// SNR survey spans −1 to 13 dB.
	rng := rand.New(rand.NewSource(93))
	for _, snr := range []float64{-1, 5, 13} {
		var sum float64
		const trials = 8
		for trial := 0; trial < trials; trial++ {
			iq, want := chirpCapture(rng, 2e-3, snr, -22e3, rng.Float64()*2*math.Pi)
			det := &AICDetector{LowPassCutoffHz: DefaultPrefilterCutoffHz}
			got, err := det.DetectOnset(iq, testRate)
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Abs(float64(got.Sample)-want) / testRate * 1e6
		}
		if avg := sum / trials; avg > 10 {
			t.Errorf("mean AIC error at %+.0f dB = %.1f µs, want < 10", snr, avg)
		}
	}
}

func TestAICDetectorLowSNR(t *testing.T) {
	// Below the building range the error grows; the detector must stay
	// within ~150 µs at −10 dB (see EXPERIMENTS.md for the Fig. 10
	// comparison — the paper reports tighter tails than plain AR-AIC on
	// Gaussian noise achieves).
	rng := rand.New(rand.NewSource(93))
	var sum float64
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		iq, want := chirpCapture(rng, 2e-3, -10, -22e3, rng.Float64()*2*math.Pi)
		det := &AICDetector{LowPassCutoffHz: DefaultPrefilterCutoffHz}
		got, err := det.DetectOnset(iq, testRate)
		if err != nil {
			t.Fatal(err)
		}
		sum += math.Abs(float64(got.Sample)-want) / testRate * 1e6
	}
	if avg := sum / trials; avg > 150 {
		t.Errorf("mean AIC error at -10 dB = %.1f µs, want < 150", avg)
	}
}

func TestAICErrorGrowsAsSNRDrops(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	meanErr := func(snr float64) float64 {
		var sum float64
		const trials = 6
		for i := 0; i < trials; i++ {
			iq, want := chirpCapture(rng, 2e-3, snr, -22e3, rng.Float64()*2*math.Pi)
			det := &AICDetector{LowPassCutoffHz: DefaultPrefilterCutoffHz}
			got, err := det.DetectOnset(iq, testRate)
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Abs(float64(got.Sample) - want)
		}
		return sum / trials
	}
	if meanErr(30) > meanErr(-15) {
		t.Error("AIC error should grow as SNR drops")
	}
}

func TestEnvelopeRatiosShape(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	iq, want := chirpCapture(rng, 2e-3, 30, -20e3, 1)
	det := &EnvelopeDetector{SmoothLen: 8}
	env, ratios := det.Ratios(iq)
	if len(env) != len(iq) || len(ratios) != len(iq) {
		t.Fatal("length mismatch")
	}
	// The max ratio should sit near the onset (Fig. 9(a)).
	best, bestI := 0.0, 0
	for i, v := range ratios {
		if v > best {
			best = v
			bestI = i
		}
	}
	if math.Abs(float64(bestI)-want) > 40 {
		t.Errorf("max ratio at %d, onset at %.0f", bestI, want)
	}
	// Envelope after onset should be near the chirp amplitude 1.
	after := dsp.Mean(env[int(want)+200 : int(want)+1200])
	if math.Abs(after-1) > 0.2 {
		t.Errorf("post-onset envelope = %f", after)
	}
}

func TestSpectrogramDetectorCoarse(t *testing.T) {
	// The ablation point (§6.1.2): the spectrogram finds the onset but
	// only at hop-size resolution (~50 µs), 10-100x worse than AIC.
	rng := rand.New(rand.NewSource(96))
	iq, want := chirpCapture(rng, 2e-3, 30, -20e3, 1)
	det := &SpectrogramDetector{WindowLen: 128, Overlap: 16}
	got, err := det.DetectOnset(iq, testRate)
	if err != nil {
		t.Fatal(err)
	}
	errUs := math.Abs(float64(got.Sample)-want) / testRate * 1e6
	if errUs > 120 {
		t.Errorf("spectrogram error %.1f µs, want < 120 (coarse but sane)", errUs)
	}
	if errUs < 0.42 {
		t.Logf("note: spectrogram got lucky (%.2f µs), typical error is tens of µs", errUs)
	}
}

func TestMatchedFilterPhaseSensitive(t *testing.T) {
	// The paper's §6.1.2 dismissal: the real matched filter degrades when
	// the transmitter phase differs from the template's. Verify the
	// correlation score drops with phase mismatch.
	rng := rand.New(rand.NewSource(97))
	p := lora.DefaultParams(7)
	score := func(theta float64) float64 {
		spec := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, Phase: theta}
		lead := int(1e-3 * testRate)
		iq := make([]complex128, lead+int(spec.Duration()*testRate)+32)
		spec.AddTo(iq, testRate, float64(lead)/testRate)
		noise := dsp.GaussianNoise(rng, len(iq), 0.0001)
		for i := range iq {
			iq[i] += noise[i]
		}
		det := &MatchedFilterDetector{Params: p, TemplatePhase: 0}
		got, err := det.DetectOnset(iq, testRate)
		if err != nil {
			return math.Inf(1)
		}
		return math.Abs(float64(got.Sample) - float64(lead))
	}
	matched := score(0)
	mismatched := score(math.Pi / 2)
	if matched > 4 {
		t.Errorf("phase-matched template missed onset by %f samples", matched)
	}
	if mismatched < 4 {
		t.Errorf("phase-mismatched template should degrade, error = %f samples", mismatched)
	}
}

func TestDetectorsOnFullFramePreamble(t *testing.T) {
	// The detectors must also work on a real modulated frame (preamble
	// first), not just an isolated chirp.
	rng := rand.New(rand.NewSource(98))
	p := lora.DefaultParams(7)
	f := lora.Frame{Params: p, Payload: []byte("x")}
	lead := 3e-3
	dur, err := f.ModulatedDuration()
	if err != nil {
		t.Fatal(err)
	}
	iq := make([]complex128, int((lead+dur+0.001)*testRate))
	if err := f.ModulateAt(iq, lora.Impairments{FrequencyBias: -21e3, InitialPhase: 2.2}, testRate, lead); err != nil {
		t.Fatal(err)
	}
	noise := dsp.GaussianNoise(rng, len(iq), 0.001)
	for i := range iq {
		iq[i] += noise[i]
	}
	det := &AICDetector{}
	// Analyze only the first few ms (the SDR captures the first two
	// chirps, §5.1).
	window := iq[:int((lead+2.5e-3)*testRate)]
	got, err := det.DetectOnset(window, testRate)
	if err != nil {
		t.Fatal(err)
	}
	errUs := math.Abs(got.Time-lead) * 1e6
	if errUs > 3 {
		t.Errorf("frame preamble onset error %.2f µs", errUs)
	}
}

func TestOnsetErrors(t *testing.T) {
	det := &AICDetector{}
	if _, err := det.DetectOnset(make([]complex128, 4), testRate); err == nil {
		t.Error("expected error on tiny trace")
	}
	env := &EnvelopeDetector{}
	if _, err := env.DetectOnset(nil, testRate); err == nil {
		t.Error("expected error on empty trace")
	}
	sg := &SpectrogramDetector{}
	if _, err := sg.DetectOnset(make([]complex128, 16), testRate); err == nil {
		t.Error("expected error on trace shorter than window")
	}
	mf := &MatchedFilterDetector{Params: lora.DefaultParams(7)}
	if _, err := mf.DetectOnset(make([]complex128, 16), testRate); err == nil {
		t.Error("expected error on trace shorter than template")
	}
}

// The float32 decision lanes must hand the final float64 refinement a
// window containing the same minimum the reference lane finds: on chirp
// fixtures across the SNR range the two lanes must agree on the exact onset
// sample. (The lane only decides window placement; the 8-bit quantized
// trace sits ~40 dB above float32 rounding, so disagreement would mean the
// coarse picks diverged by more than the refinement window absorbs.)
func TestAICDetectorFloat32LaneParity(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	for _, snr := range []float64{40, 13, 0, -10} {
		for trial := 0; trial < 6; trial++ {
			iq, _ := chirpCapture(rng, 2e-3, snr, -22e3, rng.Float64()*2*math.Pi)
			fast := &AICDetector{LowPassCutoffHz: DefaultPrefilterCutoffHz}
			ref := &AICDetector{LowPassCutoffHz: DefaultPrefilterCutoffHz, Float64: true}
			got32, err := fast.DetectOnset(iq, testRate)
			if err != nil {
				t.Fatal(err)
			}
			got64, err := ref.DetectOnset(iq, testRate)
			if err != nil {
				t.Fatal(err)
			}
			if got32.Sample != got64.Sample {
				t.Errorf("snr %+.0f trial %d: float32 lane onset %d != float64 lane %d",
					snr, trial, got32.Sample, got64.Sample)
			}
		}
	}
}

// componentInto32Ref and boxcarDecimate32Ref are the float32 lane's
// whole-trace component extraction and the boxcar over it, as the coarse
// stage ran them before boxcarComponent32 fused the two.
func componentInto32Ref(iq []complex128, c Component) []float32 {
	dst := make([]float32, len(iq))
	for i, v := range iq {
		if c == ComponentQ {
			dst[i] = float32(imag(v))
		} else {
			dst[i] = float32(real(v))
		}
	}
	return dst
}

func boxcarDecimate32Ref(x []float32, dec int) []float32 {
	dst := make([]float32, len(x)/dec)
	inv := 1 / float32(dec)
	for j := range dst {
		var s float32
		for _, v := range x[j*dec : j*dec+dec] {
			s += v
		}
		dst[j] = s * inv
	}
	return dst
}

// TestBoxcarComponent32MatchesComponentThenBoxcar pins the fused boxcar to
// component-then-boxcar with ==, for I and Q, at decimations that leave a
// trailing partial block (len % dec ≠ 0) and on a capture shorter than one
// block.
func TestBoxcarComponent32MatchesComponentThenBoxcar(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var dst []float32
	for _, n := range []int{3, 1001, 14629} {
		iq := make([]complex128, n)
		for i := range iq {
			iq[i] = complex(rng.NormFloat64(), rng.NormFloat64()*1e3)
		}
		for _, c := range []Component{ComponentI, ComponentQ} {
			for _, dec := range []int{1, 2, 3, 4, 8} {
				want := boxcarDecimate32Ref(componentInto32Ref(iq, c), dec)
				dst = boxcarComponent32(dst, iq, c, dec)
				if len(dst) != len(want) {
					t.Fatalf("n %d component %d dec %d: %d outputs, want %d", n, c, dec, len(dst), len(want))
				}
				for j := range want {
					if dst[j] != want[j] {
						t.Fatalf("n %d component %d dec %d: output %d = %v, want %v", n, c, dec, j, dst[j], want[j])
					}
				}
			}
		}
	}
}

// coarsePick32Ref is the float32 coarse/mid staging as it ran on the whole
// float32 component: boxcar of the full component, the cleanup FIR over
// the decimated trace, and the mid-stage filter evaluated in place on the
// full-length component. It returns the pick and the mid-stage filter
// output.
func coarsePick32Ref(a *AICDetector, iq []complex128, sampleRate float64, margin int) (int, []float32) {
	const dec = DefaultAICCoarseDecimation
	comp := componentInto32Ref(iq, a.Component)
	decMargin := max(margin/dec, 2)
	if len(comp)/dec < 2*decMargin+2 {
		return -2, nil // the float64 fallback; not what this oracle covers
	}
	coarseIn := boxcarDecimate32Ref(comp, dec)
	if fir2 := a.pre.decFilter(sampleRate/dec, a.LowPassCutoffHz); fir2 != nil {
		coarseIn = fir2.ApplyRealRangeInto32(nil, coarseIn, 0, len(coarseIn))
	}
	var sc dsp.AICScratch
	k := sc.Onset32Strided(coarseIn, decMargin, aicSearchStride)
	if k < 0 {
		return -2, nil
	}
	lo := max(k*dec+dec/2-96*dec, 0)
	hi := min(k*dec+dec/2+96*dec, len(comp))
	mid := a.pre.filter(sampleRate, a.LowPassCutoffHz).ApplyRealRangeInto32(nil, comp, lo, hi)
	if fine := sc.Onset32Strided(mid, margin, aicSearchStride); fine >= 0 {
		return lo + fine, mid
	}
	return k*dec + dec/2, mid
}

// TestCoarsePick32MatchesWholeComponentForm checks that reading the
// component only over the mid window plus the prefilter's half-length
// changes neither the mid-stage filter output, bit for bit, nor the pick:
// every output reads the same samples, and an output is an edge output
// (zero-padded, summed serially) exactly when it is one on the whole
// trace. Onsets near the capture's start and end make the window clamp at
// either boundary; both components are covered.
func TestCoarsePick32MatchesWholeComponentForm(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 120; trial++ {
		lead := []float64{5e-6, 60e-6, 2e-3}[trial%3]
		snr := []float64{40, 13, 0, -8}[trial%4]
		iq, onset := chirpCapture(rng, lead, snr, -22e3, rng.Float64()*2*math.Pi)
		if trial%5 == 4 {
			iq = iq[:int(onset)+150] // the onset sits near the capture's end
		}
		a := &AICDetector{LowPassCutoffHz: DefaultPrefilterCutoffHz, Component: []Component{ComponentI, ComponentQ}[trial%2]}
		want, wantMid := coarsePick32Ref(a, iq, testRate, 16)
		if want == -2 {
			t.Fatalf("trial %d: fixture misses the decimated path", trial)
		}
		if got := a.coarsePick32(iq, testRate, 16); got != want {
			t.Fatalf("trial %d (lead %v, snr %v, n %d): coarsePick32 = %d, whole-component form %d", trial, lead, snr, len(iq), got, want)
		}
		if len(a.mid32) != len(wantMid) {
			t.Fatalf("trial %d: %d mid-stage outputs, want %d", trial, len(a.mid32), len(wantMid))
		}
		for j := range wantMid {
			if a.mid32[j] != wantMid[j] {
				t.Fatalf("trial %d (lead %v, n %d): mid-stage output %d = %v, whole-component form %v", trial, lead, len(iq), j, a.mid32[j], wantMid[j])
			}
		}
	}
}
