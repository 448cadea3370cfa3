package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"softlora/internal/dsp"
	"softlora/internal/lora"
)

// FB estimation errors.
var (
	ErrChirpTooShort = errors.New("core: capture shorter than one chirp")
	ErrNoEstimate    = errors.New("core: estimator failed to converge")
)

// FBEstimate is the result of a frequency-bias estimation on one chirp.
type FBEstimate struct {
	// DeltaHz is the estimated δ = δTx − δRx in Hz.
	DeltaHz float64
	// Theta is the estimated phase θ = θTx − θRx (least-squares only).
	Theta float64
	// Quality is estimator-specific: R² for linear regression, normalized
	// residual cost for least squares (lower is better there).
	Quality float64
}

// FBEstimator estimates the frequency bias from one preamble up chirp. The
// chirp trace must start at the chirp onset (use an OnsetDetector first —
// "microseconds-accurate PHY signal timestamping is a prerequisite of the
// FB estimation", §5.3) and contain at least one chirp time of samples.
type FBEstimator interface {
	EstimateFB(chirp []complex128, sampleRate float64) (FBEstimate, error)
	Name() string
}

// chirpBasePhase returns the known quadratic CSS phase
// πW²/2^SF·t² − πW·t at each sample, which every estimator subtracts or
// uses as its template.
func chirpBasePhase(p lora.Params, sampleRate float64, n int) []float64 {
	w := p.Bandwidth
	k := w * w / float64(p.ChipsPerSymbol())
	dt := 1 / sampleRate
	out := make([]float64, n)
	for i := range out {
		t := float64(i) * dt
		out[i] = math.Pi*k*t*t - math.Pi*w*t
	}
	return out
}

// dechirpScratch is the chirp-geometry-keyed template/plan/buffer scratch
// shared by the dechirping detectors and estimators (see dsp.DechirpScratch
// for the contract). One instance per goroutine.
type dechirpScratch = dsp.DechirpScratch[lora.Params]

// LinearRegressionEstimator implements §7.1.1: the unwrapped instantaneous
// phase Θ(t) minus the known quadratic chirp phase is the line 2πδt + θ;
// its slope yields δ in closed form (O(1) search complexity). The phase
// unwrap makes it sensitive to low SNR.
//
// An estimator instance holds reusable scratch and is not safe for
// concurrent use: one instance per worker goroutine.
type LinearRegressionEstimator struct {
	Params lora.Params

	// Scratch: cached base phase and residual buffer, keyed by the chirp
	// geometry, so steady-state EstimateFB runs without allocating.
	scratchN    int
	scratchRate float64
	scratchPar  lora.Params
	base        []float64
	residual    []float64
}

var _ FBEstimator = (*LinearRegressionEstimator)(nil)

// Name implements FBEstimator.
func (l *LinearRegressionEstimator) Name() string { return "linear-regression" }

// Diagnostics exposes the intermediate traces of the linear-regression
// extraction for the Fig. 12 reproduction.
type Diagnostics struct {
	// Atan2 is the wrapped instantaneous phase (Fig. 12(b)).
	Atan2 []float64
	// Rectified is the unwrapped phase Θ(t) (Fig. 12(c)).
	Rectified []float64
	// Residual is Θ(t) − πW²/2^SF·t² + πW·t (Fig. 12(d)), the fitted line.
	Residual []float64
	// Fit is the straight-line fit to Residual.
	Fit dsp.LinearFit
}

// Extract runs the full §7.1.1 pipeline and returns the intermediates.
func (l *LinearRegressionEstimator) Extract(chirp []complex128, sampleRate float64) (*Diagnostics, error) {
	n := int(l.Params.SamplesPerChirp(sampleRate))
	if n < 8 || len(chirp) < n {
		return nil, fmt.Errorf("%w: need %d samples, have %d", ErrChirpTooShort, n, len(chirp))
	}
	seg := chirp[:n]
	wrapped := dsp.Phase(seg)
	rect := dsp.UnwrapPhase(wrapped)
	base := chirpBasePhase(l.Params, sampleRate, n)
	residual := make([]float64, n)
	for i := range residual {
		residual[i] = rect[i] - base[i]
	}
	fit := dsp.LinearRegressionUniform(residual, 0, 1/sampleRate)
	return &Diagnostics{Atan2: wrapped, Rectified: rect, Residual: residual, Fit: fit}, nil
}

// ensureScratch caches the base phase for the chirp geometry and sizes the
// residual buffer.
func (l *LinearRegressionEstimator) ensureScratch(n int, sampleRate float64) {
	if l.scratchN == n && l.scratchRate == sampleRate && l.scratchPar == l.Params {
		return
	}
	l.base = chirpBasePhase(l.Params, sampleRate, n)
	if cap(l.residual) < n {
		l.residual = make([]float64, n)
	}
	l.residual = l.residual[:n]
	l.scratchN = n
	l.scratchRate = sampleRate
	l.scratchPar = l.Params
}

// EstimateFB implements FBEstimator. Unlike Extract (which returns the
// intermediate traces for diagnostics), it runs the §7.1.1 pipeline on the
// estimator's scratch buffers: atan2 phase and 2kπ rectification in place,
// base-phase subtraction against the cached template, then the closed-form
// line fit — allocation-free in steady state.
func (l *LinearRegressionEstimator) EstimateFB(chirp []complex128, sampleRate float64) (FBEstimate, error) {
	n := int(l.Params.SamplesPerChirp(sampleRate))
	if n < 8 || len(chirp) < n {
		return FBEstimate{}, fmt.Errorf("%w: need %d samples, have %d", ErrChirpTooShort, n, len(chirp))
	}
	l.ensureScratch(n, sampleRate)
	res := l.residual
	for i, v := range chirp[:n] {
		res[i] = math.Atan2(imag(v), real(v))
	}
	dsp.UnwrapPhaseInPlace(res)
	for i := range res {
		res[i] -= l.base[i]
	}
	fit := dsp.LinearRegressionUniform(res, 0, 1/sampleRate)
	return FBEstimate{
		DeltaHz: fit.Slope / (2 * math.Pi),
		Theta:   fit.Intercept,
		Quality: fit.R2,
	}, nil
}

// LeastSquaresEstimator implements §7.1.2: fit noiseless templates
// A·cosΘ(t), A·sinΘ(t) with Θ(t) = πW²/2^SF·t² − πW·t + 2πδt + θ to the
// received I/Q traces by minimizing the squared residual over (δ, θ) with
// differential evolution. It stays accurate below the demodulation SNR
// floor (−25 dB) at the cost of a population search.
type LeastSquaresEstimator struct {
	Params lora.Params
	// DeltaBoundHz bounds the δ search to [DeltaCenterHz − DeltaBoundHz,
	// DeltaCenterHz + DeltaBoundHz] (default 50 kHz, comfortably covering
	// tens-of-ppm oscillators at 869.75 MHz).
	DeltaBoundHz float64
	// DeltaCenterHz centers the search window. When the gateway checks a
	// frame against a claimed device, it searches around that device's
	// tracked bias — a narrow window is what keeps the estimator reliable
	// at −25 dB, below the single-chirp threshold SNR of an unconstrained
	// frequency search.
	DeltaCenterHz float64
	// NoisePower is the receiver's measured noise power (used to estimate
	// the template amplitude A from the received power, §7.1.2). Zero
	// means negligible noise.
	NoisePower float64
	// Decimation processes every k-th sample to bound cost (default 1).
	// The chirp is low-pass anyway after dechirping; decimation by ≤8 at
	// 2.4 Msps keeps the fit well-determined.
	Decimation int
	// DE configures the optimizer; Rand is required.
	DE dsp.DEConfig
	// Rand seeds the optimizer when DE.Rand is nil.
	Rand *rand.Rand
}

var _ FBEstimator = (*LeastSquaresEstimator)(nil)

// Name implements FBEstimator.
func (l *LeastSquaresEstimator) Name() string { return "least-squares" }

// EstimateFB implements FBEstimator.
func (l *LeastSquaresEstimator) EstimateFB(chirp []complex128, sampleRate float64) (FBEstimate, error) {
	n := int(l.Params.SamplesPerChirp(sampleRate))
	if n < 8 || len(chirp) < n {
		return FBEstimate{}, fmt.Errorf("%w: need %d samples, have %d", ErrChirpTooShort, n, len(chirp))
	}
	dec := l.Decimation
	if dec < 1 {
		dec = 1
	}
	seg := chirp[:n]
	// Estimate the template amplitude from powers: E[I²+Q²] = A² + Pnoise.
	// At very low SNR the measured power fluctuates below the configured
	// noise power; clamp to a small positive floor — the (δ, θ) argmin is
	// invariant to the (positive) amplitude scale, so the clamp does not
	// bias the estimate.
	total := dsp.Power(seg)
	a2 := total - l.NoisePower
	if a2 <= 0 {
		a2 = 0.01 * total
	}
	if a2 <= 0 {
		return FBEstimate{}, fmt.Errorf("%w: empty capture", ErrNoEstimate)
	}
	amp := math.Sqrt(a2)
	bound := l.DeltaBoundHz
	if bound <= 0 {
		bound = 50e3
	}
	// Precompute decimated samples and base phases.
	m := (n + dec - 1) / dec
	xs := make([]complex128, 0, m)
	base := make([]float64, 0, m)
	times := make([]float64, 0, m)
	fullBase := chirpBasePhase(l.Params, sampleRate, n)
	dt := 1 / sampleRate
	for i := 0; i < n; i += dec {
		xs = append(xs, seg[i])
		base = append(base, fullBase[i])
		times = append(times, float64(i)*dt)
	}
	cost := func(v []float64) float64 {
		delta, theta := v[0], v[1]
		var sum float64
		for i, x := range xs {
			th := base[i] + 2*math.Pi*delta*times[i] + theta
			s, c := math.Sincos(th)
			di := real(x) - amp*c
			dq := imag(x) - amp*s
			sum += di*di + dq*dq
		}
		return sum
	}
	cfg := l.DE
	if cfg.Rand == nil {
		cfg.Rand = l.Rand
	}
	if cfg.Rand == nil {
		return FBEstimate{}, fmt.Errorf("%w: no random source configured", ErrNoEstimate)
	}
	if cfg.MaxGenerations == 0 {
		cfg.MaxGenerations = 120
	}
	if cfg.PopulationSize == 0 {
		cfg.PopulationSize = 30
	}
	res := dsp.DifferentialEvolution(cost,
		[]float64{l.DeltaCenterHz - bound, 0},
		[]float64{l.DeltaCenterHz + bound, 2 * math.Pi},
		cfg)
	if math.IsInf(res.Cost, 1) {
		return FBEstimate{}, ErrNoEstimate
	}
	// Normalize the residual by the total power for a comparable quality
	// metric.
	totalP := dsp.Power(xs) * float64(len(xs))
	quality := 0.0
	if totalP > 0 {
		quality = res.Cost / totalP
	}
	return FBEstimate{DeltaHz: res.X[0], Theta: res.X[1], Quality: quality}, nil
}

// toneKey keys a toneFinder's template: the chirp geometry's parameters
// and whether the segment is dechirped against the down chirp instead of
// the up chirp.
type toneKey struct {
	params lora.Params
	down   bool
}

// toneFinder reads the frequency of the tone a chirp-long segment
// dechirps into: the gateway's one dechirped-tone readout, shared by
// DechirpFFTEstimator (against the up chirp) and UpDownEstimator (one
// finder per template, up and down).
//
// It runs coarse to fine. The coarse stage dechirps and boxcar-decimates
// the segment (dsp.DechirpScratch.DechirpDecimateInto — every sample stays
// in the coherent sum, so the full despreading gain survives) and picks
// the peak of an n/D-point FFT with the boxcar's sinc droop divided out
// per bin, over the fingerprint band ±BW/2 only. The zoom stage
// re-evaluates the decimated series on a chirp-Z grid (dsp.ZoomDFT)
// spanning ±2 coarse bins at 1/16 coarse-bin spacing, interpolates the
// zoom peak parabolically and folds the result into the principal alias
// band of the decimated rate. The decimation factor is capped so the
// ±BW/2 bias range stays well inside the decimated band.
//
// A finder holds its template and every buffer of both stages, and is
// not safe for concurrent use: one instance per worker goroutine.
type toneFinder struct {
	scratch dsp.DechirpScratch[toneKey]

	dec        int          // boxcar decimation factor D
	decTime    []complex128 // n/D decimated dechirped samples (time domain)
	coarsePlan *dsp.Plan
	coarseBuf  []complex128
	droopInv   []float64 // per-coarse-bin boxcar droop compensation
	zoom       dsp.ZoomDFT
	zoomOut    []complex128
	zoomStep   float64 // zoom grid spacing (Hz)
}

// maxFBDecimation caps the coarse stage's boxcar factor; with the band
// constraint in toneFinder.ensure it resolves to 8 at the default
// 2.4 Msps / 125 kHz geometry (a 19.2× oversampled chirp).
const maxFBDecimation = 16

// ensure builds the template and sizes the decimation, coarse-FFT, droop
// and zoom scratch for one chirp geometry and template, and does nothing
// when they are unchanged.
func (t *toneFinder) ensure(p lora.Params, n int, sampleRate float64, down bool) {
	key := toneKey{params: p, down: down}
	if !t.scratch.Stale(key, n, sampleRate) {
		return
	}
	// The down chirp's phase is the up chirp's negated.
	phase := chirpBasePhase(p, sampleRate, n)
	if down {
		for i := range phase {
			phase[i] = -phase[i]
		}
	}
	t.scratch.Init(key, n, sampleRate, 0, phase)
	// Largest power-of-two decimation that keeps the ±BW/2 bias span
	// inside 70 % of the decimated band (droop ≥ −2 dB there, and the
	// coarse peak cannot park legitimate tones at the decimated Nyquist),
	// with at least 64 decimated samples for a meaningful coarse FFT.
	dec := 1
	for dec*2 <= maxFBDecimation && n/(dec*2) >= 64 &&
		p.Bandwidth*float64(dec*2) <= 0.7*sampleRate {
		dec *= 2
	}
	t.dec = dec
	m := n / dec
	if cap(t.decTime) < m {
		t.decTime = make([]complex128, m)
	}
	t.decTime = t.decTime[:m]
	t.coarsePlan = dsp.PlanFor(m)
	cl := t.coarsePlan.Size()
	if cap(t.coarseBuf) < cl {
		t.coarseBuf = make([]complex128, cl)
	}
	t.coarseBuf = t.coarseBuf[:cl]
	if cap(t.droopInv) < cl {
		t.droopInv = make([]float64, cl)
	}
	t.droopInv = t.droopInv[:cl]
	decRate := sampleRate / float64(dec)
	// The coarse search covers the fingerprint band ±BW/2 (plus a few
	// bins of guard), not the whole decimated spectrum: bins beyond it
	// carry no legitimate δ, and compensating their deeper droop would
	// boost pure noise into false coarse peaks at low SNR. Out-of-band
	// bins get zero weight.
	coarseBinHz := decRate / float64(cl)
	maxAbsHz := p.Bandwidth/2 + 3*coarseBinHz
	for k := 0; k < cl; k++ {
		f := dsp.BinFrequency(k, cl, decRate)
		if math.Abs(f) > maxAbsHz && maxAbsHz < decRate/2 {
			t.droopInv[k] = 0
			continue
		}
		t.droopInv[k] = 1 / dsp.BoxcarDroopSq(dec, f/sampleRate)
	}
	// Zoom grid: ±2 coarse bins at 1/16 coarse-bin spacing. The coarse
	// length is within a factor two of NextPow2(n)/D, so this spacing is
	// always ≥4× finer than a 4×-padded full-rate FFT's rate/NextPow2(4n)
	// bins (the accuracy harness asserts the resulting error envelope).
	t.zoomStep = coarseBinHz / 16
	const points = 2*32 + 1
	if cap(t.zoomOut) < points {
		t.zoomOut = make([]complex128, points)
	}
	t.zoomOut = t.zoomOut[:points]
	domega := 2 * math.Pi * t.zoomStep / decRate
	if t.zoom.Stale(m, points, domega) {
		t.zoom.Init(m, points, domega)
	}
}

// find returns the frequency in Hz of the tone seg dechirps into, folded
// into the decimated band, and leaves the decimated dechirped series in
// t.decTime. seg must hold the n samples ensure was sized for. It returns
// ErrNoEstimate for a segment with no energy in the searched band.
//
//softlora:allocfree
func (t *toneFinder) find(seg []complex128, sampleRate float64) (float64, error) {
	dec := t.dec
	t.scratch.DechirpDecimateInto(t.decTime, seg, dec)

	// Coarse stage: droop-compensated peak over the n/D-point spectrum
	// (Transform zero-pads the shorter decimated series into the buffer).
	buf := t.coarseBuf
	t.coarsePlan.Transform(buf, t.decTime)
	bin, best := 0, 0.0
	for k, v := range buf {
		re, im := real(v), imag(v)
		if mm := (re*re + im*im) * t.droopInv[k]; mm > best {
			best, bin = mm, k
		}
	}
	if best == 0 {
		return 0, ErrNoEstimate
	}
	decRate := sampleRate / float64(dec)
	coarseHz := dsp.BinFrequency(bin, len(buf), decRate)

	// Zoom stage: chirp-Z grid over ±2 coarse bins around the pick.
	points := len(t.zoomOut)
	f0 := coarseHz - float64(points/2)*t.zoomStep
	t.zoom.Transform(t.zoomOut, t.decTime, 2*math.Pi*f0/decRate)
	zb, zbest := dsp.PeakBinSq(t.zoomOut)
	if zbest == 0 {
		return 0, ErrNoEstimate
	}
	frac := 0.0
	if zb > 0 && zb < points-1 {
		frac = dsp.InterpolatePeak(t.zoomOut, zb)
	}
	return dsp.FoldFrequency(f0+(float64(zb)+frac)*t.zoomStep, decRate), nil
}

// DechirpFFTEstimator is an extension beyond the paper: the
// chirp is multiplied by the conjugate ideal chirp, collapsing it to a tone
// at δ whose frequency is read off an interpolated spectral peak. It is
// orders of magnitude faster than the DE least squares and nearly as
// robust, and serves as the ablation baseline for the estimator comparison
// bench.
//
// The default path reads δ through the gateway's one dechirped-tone
// readout (toneFinder: a droop-compensated coarse peak of the
// boxcar-decimated dechirp, refined on a chirp-Z zoom grid at least 4×
// finer than a 4×-padded FFT's bins), then reads θ from one Goertzel
// evaluation of the decimated series at the final frequency (bias-free for
// off-grid δ, after removing the boxcar's (D−1)/2-sample group delay).
//
// Exhaustive keeps the original single-stage reference: one monolithic
// 4×-zero-padded full-rate FFT with parabolic interpolation — several times
// slower, retained as the accuracy fallback and ablation baseline. Both
// paths apply the Nyquist fold and the fractional-bin θ derotation.
//
// An estimator instance holds reusable scratch (conjugate chirp templates,
// FFT plans, decimation/zoom buffers) and is not safe for concurrent use:
// one instance per worker goroutine.
type DechirpFFTEstimator struct {
	Params lora.Params
	// Exhaustive selects the legacy monolithic padded-FFT reference path
	// instead of the decimated coarse→zoom hierarchy.
	Exhaustive bool

	tone toneFinder     // default path
	exh  dechirpScratch // Exhaustive path: 4×-padded template and FFT
}

var _ FBEstimator = (*DechirpFFTEstimator)(nil)

// Name implements FBEstimator.
func (d *DechirpFFTEstimator) Name() string { return "dechirp-fft" }

// wrapTwoPi maps an angle into [0, 2π), the estimator's θ convention.
func wrapTwoPi(th float64) float64 {
	th = math.Mod(th, 2*math.Pi)
	if th < 0 {
		th += 2 * math.Pi
	}
	return th
}

// EstimateFB implements FBEstimator. Both paths run entirely on the
// estimator's reusable scratch — allocation-free in steady state.
func (d *DechirpFFTEstimator) EstimateFB(chirp []complex128, sampleRate float64) (FBEstimate, error) {
	n := int(d.Params.SamplesPerChirp(sampleRate))
	if n < 8 || len(chirp) < n {
		return FBEstimate{}, fmt.Errorf("%w: need %d samples, have %d", ErrChirpTooShort, n, len(chirp))
	}
	if d.Exhaustive {
		if d.exh.Stale(d.Params, n, sampleRate) {
			// The reference path zero-pads 4× for finer bins before
			// interpolation.
			d.exh.Init(d.Params, n, sampleRate, 4, chirpBasePhase(d.Params, sampleRate, n))
		}
		return d.estimateExhaustive(chirp[:n], sampleRate, n)
	}
	d.tone.ensure(d.Params, n, sampleRate, false)
	return d.estimateZoom(chirp[:n], sampleRate)
}

// estimateExhaustive is the legacy single-stage reference: full-rate
// dechirp, monolithic padded FFT, parabolic interpolation.
func (d *DechirpFFTEstimator) estimateExhaustive(seg []complex128, sampleRate float64, n int) (FBEstimate, error) {
	spec := d.exh.Dechirp(seg)
	bin, magSq := dsp.PeakBinSq(spec)
	if magSq == 0 {
		return FBEstimate{}, ErrNoEstimate
	}
	nfft := len(spec)
	frac := dsp.InterpolatePeak(spec, bin)
	f := dsp.FoldFrequency(dsp.BinFrequency(bin, nfft, sampleRate)+frac*sampleRate/float64(nfft), sampleRate)
	// The dechirped tone occupies only the n unpadded samples, so a peak
	// a fractional bin off the grid leaves the integer-bin phasor rotated
	// by π·frac·(n−1)/nfft; derotate so θ is unbiased for off-bin δ.
	theta := math.Atan2(imag(spec[bin]), real(spec[bin])) - math.Pi*frac*float64(n-1)/float64(nfft)
	return FBEstimate{
		DeltaHz: f,
		Theta:   wrapTwoPi(theta),
		Quality: math.Sqrt(magSq) / float64(n),
	}, nil
}

// estimateZoom is the default path: δ from the tone finder, θ and Quality
// from the decimated series it leaves behind.
func (d *DechirpFFTEstimator) estimateZoom(seg []complex128, sampleRate float64) (FBEstimate, error) {
	f, err := d.tone.find(seg, sampleRate)
	if err != nil {
		return FBEstimate{}, err
	}
	dec := d.tone.dec
	m := len(d.tone.decTime)
	// θ from one Goertzel evaluation of the decimated series at the final
	// frequency: no integer-bin phase bias, only the boxcar accumulator's
	// (D−1)/2-sample group delay to remove.
	x := dsp.GoertzelDFT(d.tone.decTime, 2*math.Pi*f*float64(dec)/sampleRate)
	theta := math.Atan2(imag(x), real(x)) - math.Pi*f*float64(dec-1)/sampleRate
	droopAmp := math.Sqrt(dsp.BoxcarDroopSq(dec, f/sampleRate))
	quality := 0.0
	if droopAmp > 0 {
		// |X| ≈ A·m·D·droop for a tone of amplitude A: normalize to match
		// the reference path's Quality ≈ A.
		quality = math.Sqrt(real(x)*real(x)+imag(x)*imag(x)) / (float64(m*dec) * droopAmp)
	}
	return FBEstimate{DeltaHz: f, Theta: wrapTwoPi(theta), Quality: quality}, nil
}
