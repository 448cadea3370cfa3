package experiments

import (
	"fmt"
	"io"
	"math"

	"softlora/internal/core"
	"softlora/internal/dsp"
	"softlora/internal/lora"
	"softlora/internal/sdr"
)

// Fig6Result summarizes the ideal up-chirp I trace and spectrogram of
// Fig. 6: the per-frame spectrogram peak frequencies must sweep linearly
// from −W/2 to +W/2.
type Fig6Result struct {
	// Samples is the trace length at 2.4 Msps (paper: 1.024 ms chirp).
	Samples int
	// Frames is the number of spectrogram frames (paper: 20).
	Frames int
	// PeakFrequencies is the spectrogram peak per frame, Hz.
	PeakFrequencies []float64
	// SweepFit is the linear fit of peak frequency vs time; the slope
	// should be W²/2^SF ≈ 122 MHz/s for SF7 at 125 kHz.
	SweepFit dsp.LinearFit
}

// Fig6 regenerates the chirp trace and spectrogram of Fig. 6 (A=2, θ=0,
// S=7, 2^S-point Kaiser window, 16-point overlap).
func Fig6() Fig6Result {
	p := lora.DefaultParams(7)
	spec := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, Amplitude: 2}
	iq := spec.Synthesize(sdr.DefaultSampleRate)
	win := dsp.KaiserWindow(1<<p.SF, 8)
	sg := dsp.Spectrogram(iq, win, 16)
	res := Fig6Result{Samples: len(iq), Frames: len(sg)}
	hop := float64(len(win) - 16)
	for f, psd := range sg {
		best, bestV := 0, 0.0
		for i, v := range psd {
			if v > bestV {
				bestV = v
				best = i
			}
		}
		freq := dsp.BinFrequency(best, len(psd), sdr.DefaultSampleRate)
		res.PeakFrequencies = append(res.PeakFrequencies, freq)
		_ = f
	}
	// Fit the interior frames (edge windows straddle the chirp boundary).
	interiorT := make([]float64, 0, len(res.PeakFrequencies))
	interiorF := make([]float64, 0, len(res.PeakFrequencies))
	for i := 1; i < len(res.PeakFrequencies)-1; i++ {
		interiorT = append(interiorT, (float64(i)*hop+float64(len(win))/2)/sdr.DefaultSampleRate)
		interiorF = append(interiorF, res.PeakFrequencies[i])
	}
	res.SweepFit = dsp.LinearRegression(interiorT, interiorF)
	return res
}

// PrintFig6 renders the spectrogram sweep summary.
func PrintFig6(w io.Writer, r Fig6Result) {
	section(w, "Fig. 6: ideal up chirp I data + spectrogram")
	fmt.Fprintf(w, "trace: %d samples @2.4 Msps, %d spectrogram frames\n", r.Samples, r.Frames)
	fmt.Fprintf(w, "peak frequency per frame (kHz):")
	for _, f := range r.PeakFrequencies {
		fmt.Fprintf(w, " %.1f", f/1e3)
	}
	fmt.Fprintf(w, "\nsweep rate fit: %.1f MHz/s (theory W²/2^SF = %.1f), R²=%.4f\n",
		r.SweepFit.Slope/1e6, 125e3*125e3/128/1e6, r.SweepFit.R2)
}

// Fig7Result compares the I traces of two chirps differing only in θ.
type Fig7Result struct {
	// Correlation between the θ=0 and θ=π I traces (−1 for antiphase at
	// the start; the shapes are visibly different, Fig. 7).
	Correlation float64
	// MaxDiff is the maximum pointwise difference between the traces.
	MaxDiff float64
}

// Fig7 reproduces the θ-dependence of the chirp I waveform.
func Fig7() Fig7Result {
	p := lora.DefaultParams(7)
	a := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, Phase: 0}.Synthesize(sdr.DefaultSampleRate)
	b := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, Phase: math.Pi}.Synthesize(sdr.DefaultSampleRate)
	ia, ib := dsp.I(a), dsp.I(b)
	var dot, na, nb, maxDiff float64
	for i := range ia {
		dot += ia[i] * ib[i]
		na += ia[i] * ia[i]
		nb += ib[i] * ib[i]
		if d := math.Abs(ia[i] - ib[i]); d > maxDiff {
			maxDiff = d
		}
	}
	return Fig7Result{Correlation: dot / math.Sqrt(na*nb), MaxDiff: maxDiff}
}

// PrintFig7 renders the phase-shape comparison.
func PrintFig7(w io.Writer, r Fig7Result) {
	section(w, "Fig. 7: I trace depends on transmitter phase θ")
	fmt.Fprintf(w, "corr(I|θ=0, I|θ=π) = %.3f (antiphase), max pointwise diff = %.2f\n",
		r.Correlation, r.MaxDiff)
	fmt.Fprintf(w, "paper: waveform shapes differ → no fixed matched-filter template\n")
}

// Fig8Result locates the I-trace envelope dip of a received chirp with and
// without frequency bias; the bias shifts the dip center (Fig. 8 vs 7).
type Fig8Result struct {
	// DipUnbiasedMs and DipBiasedMs are the dip-center times, ms.
	DipUnbiasedMs float64
	DipBiasedMs   float64
	// BiasHz is the applied transmitter bias.
	BiasHz float64
}

// iDipCenter finds the minimum of |I(t)| smoothed — the dip of the cosine
// instantaneous-frequency zero crossing region.
func iDipCenter(iq []complex128, rate float64) float64 {
	x := dsp.I(iq)
	// The dip of the I trace is where the instantaneous frequency of the
	// real trace crosses zero: |d/dt I| small and |I| near extremum...
	// Identify via the zero-crossing rate in a sliding window: the dip is
	// the window with the fewest sign changes.
	const win = 256
	best, bestI := math.Inf(1), 0
	for at := 0; at+win < len(x); at += win / 4 {
		crossings := 0
		for i := at + 1; i < at+win; i++ {
			if (x[i] >= 0) != (x[i-1] >= 0) {
				crossings++
			}
		}
		if c := float64(crossings); c < best {
			best = c
			bestI = at + win/2
		}
	}
	return float64(bestI) / rate * 1e3
}

// Fig8 reproduces the FB-induced dip shift.
func Fig8() Fig8Result {
	p := lora.DefaultParams(7)
	const bias = -22.8e3
	clean := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth}.Synthesize(sdr.DefaultSampleRate)
	biased := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, FrequencyOffset: bias}.Synthesize(sdr.DefaultSampleRate)
	return Fig8Result{
		DipUnbiasedMs: iDipCenter(clean, sdr.DefaultSampleRate),
		DipBiasedMs:   iDipCenter(biased, sdr.DefaultSampleRate),
		BiasHz:        bias,
	}
}

// PrintFig8 renders the dip-shift comparison.
func PrintFig8(w io.Writer, r Fig8Result) {
	section(w, "Fig. 8: frequency bias shifts the I-trace dip center")
	fmt.Fprintf(w, "dip center: unbiased %.3f ms, δ=%.1f kHz → %.3f ms (shift %.3f ms)\n",
		r.DipUnbiasedMs, r.BiasHz/1e3, r.DipBiasedMs, r.DipBiasedMs-r.DipUnbiasedMs)
	// The instantaneous frequency crosses zero at t = (W/2 − δ)/k; with
	// δ<0 the dip moves later, as in the paper's Fig. 8.
	k := 125e3 * 125e3 / 128
	fmt.Fprintf(w, "theory: dip at (W/2−δ)/k = %.3f ms\n", (62.5e3-r.BiasHz)/k*1e3)
}

// Fig9Result reports the onset positions found by the two detectors on the
// same capture, for the Fig. 9 illustration.
type Fig9Result struct {
	TrueOnsetMs    float64
	EnvelopePeakMs float64
	AICPickMs      float64
	MaxEnvRatio    float64
}

// Fig9 builds one noisy capture and reports both detectors' diagnostics.
func Fig9() (Fig9Result, error) {
	rng := newRand(9)
	const rate = sdr.DefaultSampleRate
	iq, want := onsetTrial(rng, rate)
	env := &core.EnvelopeDetector{}
	_, ratios := env.Ratios(iq)
	bestR, bestRI := 0.0, 0
	for i, v := range ratios {
		if v > bestR {
			bestR = v
			bestRI = i
		}
	}
	aic := &core.AICDetector{}
	pick, err := aic.DetectOnset(iq, rate)
	if err != nil {
		return Fig9Result{}, fmt.Errorf("experiments: fig 9: %w", err)
	}
	return Fig9Result{
		TrueOnsetMs:    want / rate * 1e3,
		EnvelopePeakMs: float64(bestRI) / rate * 1e3,
		AICPickMs:      pick.Time * 1e3,
		MaxEnvRatio:    bestR,
	}, nil
}

// PrintFig9 renders the detector diagnostics.
func PrintFig9(w io.Writer, r Fig9Result) {
	section(w, "Fig. 9: preamble onset detection")
	fmt.Fprintf(w, "true onset %.4f ms | envelope max-ratio pick %.4f ms (ratio %.1f) | AIC pick %.4f ms\n",
		r.TrueOnsetMs, r.EnvelopePeakMs, r.AICPickMs, r.MaxEnvRatio)
}

// Fig11Result compares I traces for δ = ±25 kHz (Fig. 11): the axis of
// symmetry (dip) moves to opposite sides.
type Fig11Result struct {
	DipMinusMs float64 // δ = −25 kHz
	DipPlusMs  float64 // δ = +25 kHz
}

// Fig11 reproduces the symmetric dip shift.
func Fig11() Fig11Result {
	p := lora.DefaultParams(7)
	minus := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, FrequencyOffset: -25e3}.Synthesize(sdr.DefaultSampleRate)
	plus := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, FrequencyOffset: 25e3}.Synthesize(sdr.DefaultSampleRate)
	return Fig11Result{
		DipMinusMs: iDipCenter(minus, sdr.DefaultSampleRate),
		DipPlusMs:  iDipCenter(plus, sdr.DefaultSampleRate),
	}
}

// PrintFig11 renders the ±25 kHz comparison.
func PrintFig11(w io.Writer, r Fig11Result) {
	section(w, "Fig. 11: I trace for δ = ±25 kHz")
	fmt.Fprintf(w, "dip center: δ=−25 kHz → %.3f ms, δ=+25 kHz → %.3f ms (chirp midpoint 0.512 ms)\n",
		r.DipMinusMs, r.DipPlusMs)
}

// Fig12Result reports the linear-regression FB extraction intermediates.
type Fig12Result struct {
	AppliedDeltaHz   float64
	EstimatedDeltaHz float64
	ResidualR2       float64
	// RectifiedSpanRad is the total unwrapped phase span (Fig. 12(c)'s
	// ~−200 rad for δ = −22.8 kHz over 1 ms... the dominant term is the
	// 2πδt line minus the quadratic).
	RectifiedSpanRad float64
}

// Fig12 runs the §7.1.1 pipeline on a realistic noisy chirp.
func Fig12() (Fig12Result, error) {
	rng := newRand(12)
	p := lora.DefaultParams(7)
	const delta = -22.8e3
	spec := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, FrequencyOffset: delta, Phase: 0.7}
	iq := spec.Synthesize(sdr.DefaultSampleRate)
	noise := dsp.GaussianNoise(rng, len(iq), 0.01)
	for i := range iq {
		iq[i] += noise[i]
	}
	est := &core.LinearRegressionEstimator{Params: p}
	d, err := est.Extract(iq, sdr.DefaultSampleRate)
	if err != nil {
		return Fig12Result{}, fmt.Errorf("experiments: fig 12: %w", err)
	}
	return Fig12Result{
		AppliedDeltaHz:   delta,
		EstimatedDeltaHz: d.Fit.Slope / (2 * math.Pi),
		ResidualR2:       d.Fit.R2,
		RectifiedSpanRad: d.Rectified[len(d.Rectified)-1] - d.Rectified[0],
	}, nil
}

// PrintFig12 renders the extraction summary.
func PrintFig12(w io.Writer, r Fig12Result) {
	section(w, "Fig. 12: linear-regression FB extraction intermediates")
	fmt.Fprintf(w, "applied δ = %.1f kHz, estimated %.2f kHz (R² %.4f), rectified span %.0f rad\n",
		r.AppliedDeltaHz/1e3, r.EstimatedDeltaHz/1e3, r.ResidualR2, r.RectifiedSpanRad)
	fmt.Fprintf(w, "paper: estimates −22.8 kHz = 26 ppm of 869.75 MHz\n")
}
