package core

import (
	"errors"
	"math"

	"softlora/internal/dsp"
	"softlora/internal/lora"
)

// Component selects which SDR trace component an onset detector analyzes.
type Component int

// Trace components.
const (
	ComponentI Component = iota + 1
	ComponentQ
)

// ErrOnsetNotFound is returned when a detector cannot locate a preamble
// onset.
var ErrOnsetNotFound = errors.New("core: preamble onset not found")

// Onset is a detected preamble arrival.
type Onset struct {
	// Sample is the onset sample index in the analyzed trace.
	Sample int
	// Time is the onset instant in seconds relative to trace sample 0.
	Time float64
}

// OnsetDetector locates the preamble onset in an I/Q capture. All detectors
// are threshold-free (they solve optimization problems, §6.1.2).
type OnsetDetector interface {
	// DetectOnset returns the preamble onset in the capture sampled at
	// sampleRate. The capture should contain some noise-only lead-in
	// followed by the frame.
	DetectOnset(iq []complex128, sampleRate float64) (Onset, error)
	// Name identifies the detector in reports.
	Name() string
}

// component extracts the selected real trace.
func component(iq []complex128, c Component) []float64 {
	if c == ComponentQ {
		return dsp.Q(iq)
	}
	return dsp.I(iq)
}

// componentInto extracts the selected real trace into dst (grown as needed).
func componentInto(dst []float64, iq []complex128, c Component) []float64 {
	if cap(dst) < len(iq) {
		dst = make([]float64, len(iq))
	}
	dst = dst[:len(iq)]
	if c == ComponentQ {
		for i, v := range iq {
			dst[i] = imag(v)
		}
	} else {
		for i, v := range iq {
			dst[i] = real(v)
		}
	}
	return dst
}

// componentRangeInto extracts iq[lo:hi]'s selected component, in float64 or
// float32. The float32 lane reads just the spans its stages need this way:
// the mid stage's filter span, and the exact float64 raw-trace window of
// the final AIC refinement.
func componentRangeInto[T float32 | float64](dst []T, iq []complex128, c Component, lo, hi int) []T {
	n := hi - lo
	if n < 0 {
		n = 0
	}
	if cap(dst) < n {
		dst = make([]T, n)
	}
	dst = dst[:n]
	if c == ComponentQ {
		for j := range dst {
			dst[j] = T(imag(iq[lo+j]))
		}
	} else {
		for j := range dst {
			dst[j] = T(real(iq[lo+j]))
		}
	}
	return dst
}

// boxcarDecimate writes the mean of each complete dec-sample block of x into
// dst (len(x)/dec outputs; a trailing partial block is dropped). The boxcar
// is the cheap first anti-alias stage of the coarse AIC pick: first null at
// rate/dec, ~14 dB down across the first folding band, with the residual
// cleaned up by a short low-pass at the decimated rate.
func boxcarDecimate(dst, x []float64, dec int) []float64 {
	n := len(x) / dec
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	inv := 1 / float64(dec)
	for j := range dst {
		var s float64
		for _, v := range x[j*dec : j*dec+dec] {
			s += v
		}
		dst[j] = s * inv
	}
	return dst
}

// boxcarComponent32 is boxcarDecimate on the float32 lane, reading the
// selected component straight out of the complex capture: dst[j] is the
// mean of float32 component samples j·dec … j·dec+dec−1, summed in order
// (len(iq)/dec outputs; a trailing partial block is dropped).
func boxcarComponent32(dst []float32, iq []complex128, c Component, dec int) []float32 {
	n := len(iq) / dec
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	dst = dst[:n]
	inv := 1 / float32(dec)
	for j := range dst {
		var s float32
		if c == ComponentQ {
			for _, v := range iq[j*dec : j*dec+dec] {
				s += float32(imag(v))
			}
		} else {
			for _, v := range iq[j*dec : j*dec+dec] {
				s += float32(real(v))
			}
		}
		dst[j] = s * inv
	}
	return dst
}

// prefilterScratch band-limits the capture to the LoRa channel before
// detection, caching the FIR filter and its output buffer so per-uplink
// detection reuses both. The SDR samples 2.4 MHz of spectrum but the chirp
// occupies only ~125 kHz; removing out-of-band noise buys ~10 dB of
// processing gain, which is what lets the detectors work below the
// demodulation floor. The filter is group-delay compensated, so onset
// positions are preserved.
type prefilterScratch struct {
	fir      *dsp.FIRFilter
	firRate  float64
	firCut   float64
	filtered []complex128

	// Short cleanup filter for the boxcar-decimated coarse stage: same
	// cutoff, but designed at the decimated rate with an eighth of the taps
	// (the boxcar has already knocked the folding bands down, and the
	// full-rate re-pick absorbs what a 17-tap transition band lets through).
	decFir     *dsp.FIRFilter
	decFirRate float64
	decFirCut  float64
}

// filter returns the cached FIR for the given rate/cutoff, rebuilding it
// when either changed.
func (p *prefilterScratch) filter(sampleRate, cutoffHz float64) *dsp.FIRFilter {
	if p.fir == nil || p.firRate != sampleRate || p.firCut != cutoffHz {
		p.fir = dsp.LowPassFIR(cutoffHz, sampleRate, 129)
		p.firRate = sampleRate
		p.firCut = cutoffHz
	}
	return p.fir
}

// decFilter returns the cached post-decimation cleanup FIR for the given
// decimated rate/cutoff, or nil when the cutoff is at or beyond the new
// Nyquist (nothing left to clean up — the boxcar is the whole anti-alias).
func (p *prefilterScratch) decFilter(decRate, cutoffHz float64) *dsp.FIRFilter {
	if cutoffHz >= decRate/2 {
		return nil
	}
	if p.decFir == nil || p.decFirRate != decRate || p.decFirCut != cutoffHz {
		p.decFir = dsp.LowPassFIR(cutoffHz, decRate, 17)
		p.decFirRate = decRate
		p.decFirCut = cutoffHz
	}
	return p.decFir
}

// apply band-limits iq through the cached filter and reusable output
// buffer. The returned slice is the scratch buffer when filtering ran, or
// iq itself when filtering is disabled.
func (p *prefilterScratch) apply(iq []complex128, sampleRate, cutoffHz float64) []complex128 {
	if cutoffHz <= 0 || cutoffHz >= sampleRate/2 {
		return iq
	}
	p.filtered = p.filter(sampleRate, cutoffHz).ApplyInto(p.filtered, iq)
	return p.filtered
}

// DefaultPrefilterCutoffHz covers the 125 kHz LoRa channel plus tens-of-ppm
// oscillator offsets.
const DefaultPrefilterCutoffHz = 100e3

// EnvelopeDetector implements the paper's envelope detector: the Hilbert
// amplitude envelope is extracted and the sample with the largest ratio
// between its envelope and the previous sample's envelope is the onset
// (Fig. 9(a)).
type EnvelopeDetector struct {
	// Component selects I (default) or Q.
	Component Component
	// SmoothLen applies a moving-average to the envelope before the ratio
	// search to suppress noise spikes (0 disables; 8 is a good default for
	// 2.4 Msps).
	SmoothLen int
	// Gap is the sample distance between the two envelope amplitudes whose
	// ratio is maximized (default 8). A gap makes the step ratio dominate
	// single-sample noise fluctuations.
	Gap int
	// LowPassCutoffHz band-limits the capture before detection
	// (0 disables; DefaultPrefilterCutoffHz recommended at low SNR).
	LowPassCutoffHz float64

	// Scratch buffers reused across captures; a detector instance is not
	// safe for concurrent use.
	pre     prefilterScratch
	comp    []float64
	hilbert dsp.HilbertScratch
	env     []float64
	smooth  []float64
	ratios  []float64
}

var _ OnsetDetector = (*EnvelopeDetector)(nil)

// Name implements OnsetDetector.
func (e *EnvelopeDetector) Name() string { return "envelope" }

func (e *EnvelopeDetector) gap() int {
	if e.Gap > 0 {
		return e.Gap
	}
	return 8
}

// Ratios returns the envelope and the gap-separated envelope ratios used by
// the detector (exposed for the Fig. 9(a) reproduction). The returned slices
// are the detector's scratch buffers: they are overwritten by the next call.
func (e *EnvelopeDetector) Ratios(iq []complex128) (envelope, ratios []float64) {
	e.comp = componentInto(e.comp, iq, e.Component)
	e.env = e.hilbert.Envelope(e.env, e.comp)
	env := e.env
	if e.SmoothLen > 1 {
		e.smooth = movingAverageInto(e.smooth, env, e.SmoothLen)
		env = e.smooth
	}
	gap := e.gap()
	if cap(e.ratios) < len(env) {
		e.ratios = make([]float64, len(env))
	}
	r := e.ratios[:len(env)]
	for i := 0; i < gap && i < len(r); i++ {
		r[i] = 0
	}
	// Floor the denominator at a fraction of the peak envelope so
	// noise-over-noise ratios cannot dominate the signal step.
	floor := dsp.MaxAbs(env) * 0.05
	if floor <= 0 {
		floor = 1e-12
	}
	for i := gap; i < len(env); i++ {
		a := env[i-gap]
		if a < floor {
			a = floor
		}
		r[i] = env[i] / a
	}
	return env, r
}

// DetectOnset implements OnsetDetector.
func (e *EnvelopeDetector) DetectOnset(iq []complex128, sampleRate float64) (Onset, error) {
	if len(iq) < 4 {
		return Onset{}, ErrOnsetNotFound
	}
	filtered := e.pre.apply(iq, sampleRate, e.LowPassCutoffHz)
	_, ratios := e.Ratios(filtered)
	best, bestI := 0.0, -1
	for i, v := range ratios {
		if v > best {
			best = v
			bestI = i
		}
	}
	if bestI < 0 {
		return Onset{}, ErrOnsetNotFound
	}
	// The max ratio lands up to one gap after the true step; report the
	// gap midpoint.
	k := bestI - e.gap()/2
	if k < 0 {
		k = 0
	}
	return Onset{Sample: k, Time: float64(k) / sampleRate}, nil
}

// movingAverageInto smooths x with a trailing window of length w, writing
// into dst (grown as needed; pass nil to allocate).
func movingAverageInto(dst []float64, x []float64, w int) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	out := dst[:len(x)]
	var sum float64
	for i, v := range x {
		sum += v
		if i >= w {
			sum -= x[i-w]
		}
		n := i + 1
		if n > w {
			n = w
		}
		out[i] = sum / float64(n)
	}
	return out
}

// DefaultAICCoarseDecimation is the boxcar decimation of the component
// trace ahead of the coarse AIC pick. The 100 kHz signal band tolerates
// 4× decimation of the 2.4 Msps trace (new Nyquist 300 kHz), and the AIC
// split-point search — two logs per candidate — shrinks by the same
// factor; the full-rate refinement stage restores single-sample accuracy.
// (8× stays alias-free too, but costs a few µs of mean error below 0 dB
// SNR; 4× keeps the Fig. 15 survey inside the paper's sub-10 µs envelope.)
const DefaultAICCoarseDecimation = 4

// aicSearchStride is the candidate stride of the coarse and intermediate
// AIC split searches (dsp.AICScratch.OnsetStrided). Both stages hand their
// pick to a follow-up stage that re-searches a window far wider than the
// stride, so the ≤(stride−1)-sample slack of the two-pass argmin is free,
// and the log evaluations drop ~4×. The final raw-trace refinement is
// always a dense search.
const aicSearchStride = 4

// AICDetector implements the paper's AIC detector: the autoregressive
// Akaike Information Criterion picker used for seismic P-phase arrival
// estimation (Sleeman & van Eck), applied to the I or Q trace. It achieves
// single-sample accuracy (Table 2: < 2 µs at 2.4 Msps).
type AICDetector struct {
	// Component selects I (default) or Q.
	Component Component
	// Margin excludes this many samples at each trace end from the
	// candidate set (default 16).
	Margin int
	// LowPassCutoffHz band-limits the capture before detection
	// (0 disables; DefaultPrefilterCutoffHz recommended at low SNR).
	LowPassCutoffHz float64
	// CoarseDecimation boxcar-decimates the band-limited trace before the
	// coarse AIC pick (0 = DefaultAICCoarseDecimation, 1 disables). Only
	// meaningful with a prefilter: the raw-trace refinement stage absorbs
	// the coarse granularity.
	CoarseDecimation int
	// Float64 forces the coarse and intermediate decision stages onto the
	// float64 reference lane. The default (false) runs them in float32 —
	// their only output is a window position handed to the next stage, and
	// the final refinement always re-picks on the exact float64 raw trace,
	// so the lanes converge to the same onset (the parity suites gate it).
	Float64 bool

	// Scratch buffers reused across captures; a detector instance is not
	// safe for concurrent use.
	pre    prefilterScratch
	comp   []float64 // raw-trace component (float64 lane / no-prefilter path)
	comp32 []float32 // component over the mid stage's filter span (float32 lane)
	box    []float64 // boxcar-decimated component (coarse stage input)
	box32  []float32
	dec    []float64 // decimated + cleaned-up component (coarse stage)
	dec32  []float32
	mid    []float64 // filtered full-rate component window (intermediate stage)
	mid32  []float32
	win    []float64 // raw float64 window for the final refinement (float32 lane)
	aic    dsp.AICScratch
}

var _ OnsetDetector = (*AICDetector)(nil)

// Name implements OnsetDetector.
func (a *AICDetector) Name() string { return "aic" }

// DetectOnset implements OnsetDetector.
//
// With a prefilter configured, detection is three-stage and works on the
// selected real component throughout (the prefilter taps are real, so
// filtering the component equals taking the component of the filtered
// trace): a coarse AIC pick on a boxcar-decimated and band-limited trace,
// a full-rate re-pick on the band-limited component inside a window around
// it (processing gain against out-of-band noise, at O(window·taps) instead
// of a full-trace convolution), then the AIC refinement on the raw trace.
// The refinement removes the edge smear the FIR transition band introduces
// (~half the filter length), which would otherwise bias the pick early.
//
// Unless Float64 is set, the first two stages run on the float32 lane
// (single-precision component, filters and AIC log); the final refinement
// always runs in float64 on the raw trace, so the lanes agree on the onset.
// The float32 lane reads the capture in three narrow passes instead of
// materializing a full-length component: the coarse boxcar sums the
// component straight out of iq, the mid stage extracts its window plus the
// prefilter's half-length, and the refinement its ±256-sample window.
func (a *AICDetector) DetectOnset(iq []complex128, sampleRate float64) (Onset, error) {
	margin := a.Margin
	if margin <= 0 {
		margin = 16
	}
	if a.LowPassCutoffHz <= 0 || a.LowPassCutoffHz >= sampleRate/2 {
		a.comp = componentInto(a.comp, iq, a.Component)
		k := a.aic.Onset(a.comp, margin)
		if k < 0 {
			return Onset{}, ErrOnsetNotFound
		}
		return Onset{Sample: k, Time: float64(k) / sampleRate}, nil
	}
	var coarse int
	f32 := !a.Float64
	if f32 {
		coarse = a.coarsePick32(iq, sampleRate, margin)
	} else {
		a.comp = componentInto(a.comp, iq, a.Component)
		coarse = a.coarsePick(iq, sampleRate, margin)
	}
	if coarse < 0 {
		return Onset{}, ErrOnsetNotFound
	}
	const window = 256
	lo := coarse - window
	if lo < 0 {
		lo = 0
	}
	hi := coarse + window
	if hi > len(iq) {
		hi = len(iq)
	}
	var k int
	if f32 {
		a.win = componentRangeInto(a.win, iq, a.Component, lo, hi)
		k = a.aic.Onset(a.win, 8)
	} else {
		k = a.aic.Onset(a.comp[lo:hi], 8)
	}
	if k < 0 {
		return Onset{Sample: coarse, Time: float64(coarse) / sampleRate}, nil
	}
	final := lo + k
	return Onset{Sample: final, Time: float64(final) / sampleRate}, nil
}

// coarsePick locates the onset on the band-limited component: a coarse AIC
// split on the boxcar-decimated trace (cleaned up by a short low-pass at
// the decimated rate — the boxcar's stopband rejection plus a 33-tap FIR
// at rate/dec costs a quarter of the MACs of evaluating the full 129-tap
// prefilter polyphase), then a full-rate re-pick on filtered samples inside
// a window around the decimated split. The window absorbs the decimation
// granularity, the boxcar's residual alias noise and the low-SNR wander of
// the decimated AIC minimum, so the result converges to the undecimated
// filtered-trace pick at O(n/dec + window) filter/log evaluations instead
// of O(n). Falls back to the full-rate filtered pick — through the
// O(n log n) overlap-save convolution, not the direct form — when
// decimation is disabled or the trace is too short to decimate.
func (a *AICDetector) coarsePick(iq []complex128, sampleRate float64, margin int) int {
	dec := a.CoarseDecimation
	if dec == 0 {
		dec = DefaultAICCoarseDecimation
	}
	if dec > 1 {
		decMargin := margin / dec
		if decMargin < 2 {
			decMargin = 2
		}
		if len(a.comp)/dec >= 2*decMargin+2 {
			a.box = boxcarDecimate(a.box, a.comp, dec)
			coarseIn := a.box
			if fir2 := a.pre.decFilter(sampleRate/float64(dec), a.LowPassCutoffHz); fir2 != nil {
				a.dec = fir2.ApplyRealRangeInto(a.dec, a.box, 0, len(a.box))
				coarseIn = a.dec
			}
			if k := a.aic.OnsetStrided(coarseIn, decMargin, aicSearchStride); k >= 0 {
				window := 96 * dec
				lo := k*dec + dec/2 - window
				if lo < 0 {
					lo = 0
				}
				hi := k*dec + dec/2 + window
				if hi > len(a.comp) {
					hi = len(a.comp)
				}
				fir := a.pre.filter(sampleRate, a.LowPassCutoffHz)
				a.mid = fir.ApplyRealRangeInto(a.mid, a.comp, lo, hi)
				if fine := a.aic.OnsetStrided(a.mid, margin, aicSearchStride); fine >= 0 {
					return lo + fine
				}
				return k*dec + dec/2
			}
		}
	}
	filtered := a.pre.apply(iq, sampleRate, a.LowPassCutoffHz)
	a.mid = componentInto(a.mid, filtered, a.Component)
	return a.aic.Onset(a.mid, margin)
}

// coarsePick32 is coarsePick on the float32 lane: identical staging
// (boxcar-decimate, short cleanup FIR, coarse AIC, full-rate windowed
// re-pick) over the single-precision component, with the AIC split running
// on the fast-log Onset32Strided. It never extracts the whole component:
// the boxcar reads it straight out of iq, and the mid stage extracts only
// its window plus the prefilter's half-length on each side — every sample
// its outputs read, so they equal the full-trace filter's bit for bit. The
// decimated-rate fallback drops to the float64 coarsePick — it needs the
// complex prefilter, which stays double.
func (a *AICDetector) coarsePick32(iq []complex128, sampleRate float64, margin int) int {
	dec := a.CoarseDecimation
	if dec == 0 {
		dec = DefaultAICCoarseDecimation
	}
	if dec > 1 {
		decMargin := margin / dec
		if decMargin < 2 {
			decMargin = 2
		}
		if len(iq)/dec >= 2*decMargin+2 {
			a.box32 = boxcarComponent32(a.box32, iq, a.Component, dec)
			coarseIn := a.box32
			if fir2 := a.pre.decFilter(sampleRate/float64(dec), a.LowPassCutoffHz); fir2 != nil {
				a.dec32 = fir2.ApplyRealRangeInto32(a.dec32, a.box32, 0, len(a.box32))
				coarseIn = a.dec32
			}
			if k := a.aic.Onset32Strided(coarseIn, decMargin, aicSearchStride); k >= 0 {
				window := 96 * dec
				lo := k*dec + dec/2 - window
				if lo < 0 {
					lo = 0
				}
				hi := k*dec + dec/2 + window
				if hi > len(iq) {
					hi = len(iq)
				}
				fir := a.pre.filter(sampleRate, a.LowPassCutoffHz)
				half := len(fir.Taps) / 2
				from, to := max(lo-half, 0), min(hi+half, len(iq))
				a.comp32 = componentRangeInto(a.comp32, iq, a.Component, from, to)
				a.mid32 = fir.ApplyRealRangeInto32(a.mid32, a.comp32, lo-from, hi-from)
				if fine := a.aic.Onset32Strided(a.mid32, margin, aicSearchStride); fine >= 0 {
					return lo + fine
				}
				return k*dec + dec/2
			}
		}
	}
	a.comp = componentInto(a.comp, iq, a.Component)
	return a.coarsePick(iq, sampleRate, margin)
}

// Curve returns the AIC curve for Fig. 9(b)-style diagnostics.
func (a *AICDetector) Curve(iq []complex128) []float64 {
	margin := a.Margin
	if margin <= 0 {
		margin = 16
	}
	return dsp.AICCurve(component(iq, a.Component), margin)
}

// SpectrogramDetector is the ablation detector the paper dismisses in
// §6.1.2: it locates the first STFT frame whose chirp-band energy exceeds
// the noise floor. Its time resolution is limited to the hop size (~50 µs
// with the paper's Fig. 6 parameters), which is why it is not used.
type SpectrogramDetector struct {
	// WindowLen is the STFT window (default 128).
	WindowLen int
	// Overlap between windows (default 16).
	Overlap int
}

var _ OnsetDetector = (*SpectrogramDetector)(nil)

// Name implements OnsetDetector.
func (s *SpectrogramDetector) Name() string { return "spectrogram" }

// DetectOnset implements OnsetDetector.
func (s *SpectrogramDetector) DetectOnset(iq []complex128, sampleRate float64) (Onset, error) {
	win := s.WindowLen
	if win <= 0 {
		win = 128
	}
	overlap := s.Overlap
	if overlap <= 0 {
		overlap = 16
	}
	sg := dsp.Spectrogram(iq, dsp.KaiserWindow(win, 8), overlap)
	if len(sg) == 0 {
		return Onset{}, ErrOnsetNotFound
	}
	// Frame powers.
	powers := make([]float64, len(sg))
	for i, psd := range sg {
		var p float64
		for _, v := range psd {
			p += v
		}
		powers[i] = p
	}
	// Threshold-free split: maximize the between-segment power contrast
	// (equivalent to a 1D two-segment fit).
	hop := win - overlap
	best, bestI := math.Inf(-1), -1
	prefix := make([]float64, len(powers)+1)
	for i, p := range powers {
		prefix[i+1] = prefix[i] + p
	}
	for k := 1; k < len(powers); k++ {
		before := prefix[k] / float64(k)
		after := (prefix[len(powers)] - prefix[k]) / float64(len(powers)-k)
		if c := after - before; c > best {
			best = c
			bestI = k
		}
	}
	if bestI < 0 {
		return Onset{}, ErrOnsetNotFound
	}
	sample := bestI * hop
	return Onset{Sample: sample, Time: float64(sample) / sampleRate}, nil
}

// MatchedFilterDetector is the second ablation detector of §6.1.2: it
// correlates the I trace against a fixed-phase chirp template. Because the
// receiver is not phase-locked (θ is random) and the transmitter has an
// unknown frequency bias, the real-valued template rarely matches — the
// paper's reason for rejecting it. (A complex correlator would work, but
// the paper's argument concerns the classic real matched filter.)
type MatchedFilterDetector struct {
	// Params defines the template chirp.
	Params lora.Params
	// TemplatePhase is the assumed transmitter phase θ of the template
	// (the detector's weakness: the true phase is unknown).
	TemplatePhase float64
}

var _ OnsetDetector = (*MatchedFilterDetector)(nil)

// Name implements OnsetDetector.
func (m *MatchedFilterDetector) Name() string { return "matched-filter" }

// DetectOnset implements OnsetDetector.
func (m *MatchedFilterDetector) DetectOnset(iq []complex128, sampleRate float64) (Onset, error) {
	spec := lora.ChirpSpec{
		SF:        m.Params.SF,
		Bandwidth: m.Params.Bandwidth,
		Phase:     m.TemplatePhase,
	}
	tmpl := spec.Synthesize(sampleRate)
	if len(tmpl) == 0 || len(iq) < len(tmpl) {
		return Onset{}, ErrOnsetNotFound
	}
	x := dsp.I(iq)
	t := dsp.I(tmpl)
	best, bestI := math.Inf(-1), -1
	// Slide the real template; normalize by local energy.
	step := 1
	for at := 0; at+len(t) <= len(x); at += step {
		var corr, energy float64
		for j := 0; j < len(t); j++ {
			corr += x[at+j] * t[j]
			energy += x[at+j] * x[at+j]
		}
		if energy <= 0 {
			continue
		}
		score := corr / math.Sqrt(energy)
		if score > best {
			best = score
			bestI = at
		}
	}
	if bestI < 0 {
		return Onset{}, ErrOnsetNotFound
	}
	return Onset{Sample: bestI, Time: float64(bestI) / sampleRate}, nil
}
