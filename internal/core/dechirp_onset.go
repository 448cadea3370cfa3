package core

import (
	"math"

	"softlora/internal/dsp"
	"softlora/internal/lora"
)

// Dechirp onset detector geometry.
const (
	// dechirpCoarseDecimation is the boxcar decimation factor of the
	// hierarchical coarse scan. coarseDecimation halves it until the
	// decimated band rate/D still holds the dechirped alias pair
	// (≥ ~2.8·Bandwidth), so low-oversampling captures degrade gracefully
	// to the full-rate scan.
	dechirpCoarseDecimation = 4
	// anchorFraction selects the earliest coarse window whose fill metric
	// reaches this fraction of the largest one as the preamble anchor. Like
	// the paper's detectors, this one is threshold-free against noise:
	// presence detection is the commodity chip's job, and on a noise-only
	// capture the result is arbitrary.
	anchorFraction = 0.8
	// apexFitHalfWidth is the number of metric samples on each side of the
	// coarse apex used for the two-line fit, in units of the fit step
	// (n/256 samples, at least 1).
	apexFitHalfWidth = 48
	// refineCombBins is the half-width, in anchor-FFT bins, of the
	// frequency comb tracked around each candidate tone during sliding
	// refinement: 3 bins per tone, 9 bins total.
	refineCombBins = 1
)

// DechirpOnsetDetector is an extension beyond the paper (DESIGN.md §6) that
// restores the paper's Fig. 10 low-SNR behaviour: it exploits LoRa's
// despreading gain instead of raw-trace statistics.
//
// The paper's envelope/AIC detectors operate on the time-domain I/Q trace,
// where at −20 dB the chirp adds only 1 % to the per-sample variance — no
// changepoint statistic can localize that precisely. Dechirping a
// chirp-long window, however, concentrates the whole chirp's energy into
// one FFT bin (a 2^SF processing gain), and the peak magnitude as a
// function of the window start is a triangle with its apex exactly at each
// chirp boundary. The detector finds the first boundary of the preamble by
// fitting the triangle apex, achieving tens of µs at −20 dB where plain
// AIC drifts by milliseconds.
//
// # Coarse→fine hierarchy
//
// The default search is hierarchical, replacing the brute-force
// full-FFT-per-window scan (kept behind Exhaustive) with three tiers whose
// per-capture complexity budget is O(N) + O(windows·(n/D)·log(n/D)) +
// O(bins·n) instead of O(windows·n·log n):
//
//  1. Coarse scan: the quarter-chirp-stride fill-metric scan runs on a
//     boxcar-decimated dechirp (dsp.DechirpScratch.DechirpDecimateInto,
//     FFT size n/D for decimation D = dechirpCoarseDecimation where the
//     band allows). The boxcar keeps every sample in the coherent sum, so
//     the full 2^SF despreading gain is preserved; its sinc droop is
//     divided out per bin, and the alias-pair metric is evaluated on the
//     decimated grid — an accuracy-preserving replacement costing ~1/4 of
//     the full-rate windows.
//  2. Apex refinement: one anchor FFT at the refinement center identifies
//     the dechirped tone; every subsequent fine step is evaluated by a
//     sliding DFT (dsp.SlidingDFT) tracking a handful of candidate bins —
//     the anchor tone, its ±W chirp-boundary neighbours, and a ±1-bin comb
//     around each — over the once-per-capture globally dechirped trace.
//     Sliding costs O(1) per bin per sample shift, so the fine steps (a
//     stride of n/256 samples) that previously each paid a full n-point
//     FFT now cost one FFT plus O(bins·n) total.
//  3. Full transforms that remain (anchor FFTs, the decimated coarse FFTs)
//     run radix-4 kernels whenever their size's log2 is even — true for
//     every hot size here — via dsp.Plan's kernel selection.
//
// A detector instance holds reusable scratch (dechirp templates, FFT plans
// and buffers, the global dechirped trace, sliding-DFT state) and is
// therefore NOT safe for concurrent use: give each worker goroutine its
// own instance.
type DechirpOnsetDetector struct {
	Params lora.Params
	// Exhaustive disables the incremental machinery and evaluates the same
	// detector brute-force: the coarse fill metric pays a full-rate
	// dechirp FFT at every window (no decimation) and the apex refinement
	// re-evaluates every candidate frequency from scratch per fine step
	// (per-window Goertzel, no sliding reuse). It computes the same
	// quantities as the hierarchical path without any of its
	// approximations, which makes it the reference implementation the
	// hierarchy is parity-tested against; production paths should leave
	// it false.
	Exhaustive bool

	// Scratch: sized once per (chirp length, sample rate) and reused across
	// every sliding window of every capture, keeping the window scan
	// allocation-free in steady state.
	scratch    dechirpScratch
	magSq      []float64    // per-bin squared magnitudes (fillMag)
	magSqDec   []float64    // per-bin squared magnitudes, decimated scan
	droopInv   []float64    // boxcar droop compensation per decimated bin
	droopDec   int          // decimation the droop table was built for
	droopLen   int          // decimated FFT size of the droop table
	coarseMags []float64    // coarse-scan metric values
	coarseAts  []int        // coarse-scan window starts
	coarseSlab []complex128 // packed decimated windows for TransformMany
	fitXs      []float64    // apex-fit abscissae
	fitYs      []float64    // apex-fit metric values

	// Global-dechirp scratch for the sliding refinement: the capture
	// multiplied by the conjugate infinite chirp anchored at sample 0. In
	// this trace every preamble chirp is a steady tone, the tones of
	// adjacent chirps sit exactly W apart, and a window's dechirped
	// spectrum is the trace's windowed spectrum up to a frequency shift of
	// μ·start (μ = 2πk/rate², k the chirp slope) — which is what lets a
	// fixed-frequency sliding DFT replace per-window FFTs.
	zPar       lora.Params
	zRate      float64
	zConj      []complex128 // conjugate infinite-chirp template, grow-only
	z          []complex128 // globally dechirped capture
	sliding    dsp.SlidingDFT
	thetaBuf   []float64
	toneOmegas []float64    // toneMetric's shifted frequency set
	toneSums   []complex128 // toneMetric's per-frequency DFT sums
}

var _ OnsetDetector = (*DechirpOnsetDetector)(nil)

// ensureScratch sizes the dechirp template, FFT plan and buffers for
// chirp-long windows of n samples at the given rate.
func (d *DechirpOnsetDetector) ensureScratch(n int, sampleRate float64) {
	if !d.scratch.Stale(d.Params, n, sampleRate) {
		return
	}
	d.scratch.Init(d.Params, n, sampleRate, 1, chirpBasePhase(d.Params, sampleRate, n))
	nfft := d.scratch.Size()
	if cap(d.magSq) < nfft {
		d.magSq = make([]float64, nfft)
	}
	d.magSq = d.magSq[:nfft]
}

// coarseDecimation resolves the effective coarse-scan decimation for the
// capture geometry: dechirpCoarseDecimation, halved while the decimated
// band cannot hold the dechirped alias pair (tones span ±(W + bias), so the
// decimated rate must stay above ~2.8·W) or while the decimated window
// would drop below a useful FFT length.
func (d *DechirpOnsetDetector) coarseDecimation(n int, sampleRate float64) int {
	dec := dechirpCoarseDecimation
	for dec > 1 && (sampleRate < 2.8*d.Params.Bandwidth*float64(dec) || n/dec < 64) {
		dec /= 2
	}
	return dec
}

// ensureDroop builds the boxcar droop-compensation table for the decimated
// coarse spectrum.
func (d *DechirpOnsetDetector) ensureDroop(n, dec int) {
	m := dsp.NextPow2(n / dec)
	if d.droopDec == dec && d.droopLen == m {
		return
	}
	if cap(d.droopInv) < m {
		d.droopInv = make([]float64, m)
	}
	d.droopInv = d.droopInv[:m]
	for i := range d.droopInv {
		f := float64(i) / float64(m)
		if f >= 0.5 {
			f -= 1
		}
		d.droopInv[i] = 1 / dsp.BoxcarDroopSq(dec, f/float64(dec))
	}
	if cap(d.magSqDec) < m {
		d.magSqDec = make([]float64, m)
	}
	d.magSqDec = d.magSqDec[:m]
	d.droopDec, d.droopLen = dec, m
}

// ensureGlobalDechirp extends the conjugate infinite-chirp template to the
// capture length (grow-only, recomputed only when the chirp geometry
// changes) and dechirps the whole capture into d.z.
func (d *DechirpOnsetDetector) ensureGlobalDechirp(iq []complex128, sampleRate float64) {
	if d.zPar != d.Params || d.zRate != sampleRate {
		d.zConj = d.zConj[:0]
		d.zPar, d.zRate = d.Params, sampleRate
	}
	n := len(iq)
	if len(d.zConj) < n {
		old := len(d.zConj)
		if cap(d.zConj) < n {
			grown := make([]complex128, n)
			copy(grown, d.zConj[:old])
			d.zConj = grown
		} else {
			d.zConj = d.zConj[:n]
		}
		w := d.Params.Bandwidth
		k := w * w / float64(d.Params.ChipsPerSymbol())
		dt := 1 / sampleRate
		for p := old; p < n; p++ {
			t := float64(p) * dt
			ph := math.Pi*k*t*t - math.Pi*w*t
			s, c := math.Sincos(-ph)
			d.zConj[p] = complex(c, s)
		}
	}
	if cap(d.z) < n {
		d.z = make([]complex128, n)
	}
	d.z = d.z[:n]
	for p, v := range iq {
		d.z[p] = v * d.zConj[p]
	}
}

// dechirpWindow multiplies the chirp-long window at start with the conjugate
// base chirp into the FFT buffer and transforms it in place, returning the
// spectrum (nil when the window does not fit the capture).
func (d *DechirpOnsetDetector) dechirpWindow(iq []complex128, start, n int) []complex128 {
	if start < 0 || start+n > len(iq) {
		return nil
	}
	return d.scratch.Dechirp(iq[start : start+n])
}

// aliasPairMaxSq scans the squared-magnitude spectrum for the strongest
// alias pair — two bins exactly wBins apart (the split-tone signature of a
// misaligned but filled dechirp window) — and returns the pair's summed
// power.
func aliasPairMaxSq(magSq []float64, wBins int) float64 {
	nb := len(magSq)
	best := 0.0
	// Bin b pairs with bin (b−wBins) mod nb: the first wBins bins with the
	// top wBins, every later bin with the bin wBins below it.
	low := magSq[:wBins]
	wrapped := magSq[nb-wBins:]
	wrapped = wrapped[:len(low)]
	for b, v := range low {
		if s := v + wrapped[b]; s > best {
			best = s
		}
	}
	high := magSq[wBins:]
	below := magSq[:len(high)]
	for b, v := range high {
		if s := v + below[b]; s > best {
			best = s
		}
	}
	return best
}

// fillMag returns an alignment-insensitive fill metric for the window: a
// window misaligned by m within the preamble dechirps into two tones
// exactly W apart (sizes m and n−m), so the root-sum-square over
// alias-pair bins stays within [0.71, 1]×(full) regardless of alignment,
// while a partially filled window scales with its fill. This is the anchor
// metric; the candidate-tone peak of refineApex is the apex-refinement
// metric.
//
//softlora:allocfree
func (d *DechirpOnsetDetector) fillMag(iq []complex128, start, n int, sampleRate float64) float64 {
	spec := d.dechirpWindow(iq, start, n)
	if spec == nil {
		return 0
	}
	nb := len(spec)
	wBins := int(math.Round(d.Params.Bandwidth / sampleRate * float64(nb)))
	if wBins <= 0 || wBins >= nb {
		wBins = nb / 2
	}
	magSq := d.magSq
	for i, v := range spec {
		re, im := real(v), imag(v)
		magSq[i] = re*re + im*im
	}
	return math.Sqrt(aliasPairMaxSq(magSq, wBins))
}

// fillMagDecSpec is fillMag on the boxcar-decimated dechirp path, scoring
// one pre-transformed block of the batched coarse scan (one TransformMany
// over every window's DechirpDecimateInto result): same alias-pair metric,
// FFT size n/dec, with the boxcar's sinc droop divided out so bin powers
// match the full-rate transform's across the band. The decimated grid keeps
// the alias-pair geometry because bin widths in Hz are preserved:
// W/(rate/dec)·(nfft/dec) = W/rate·nfft.
//
//softlora:allocfree
func (d *DechirpOnsetDetector) fillMagDecSpec(spec []complex128, sampleRate float64, dec int) float64 {
	nb := len(spec)
	wBins := int(math.Round(d.Params.Bandwidth / sampleRate * float64(dec) * float64(nb)))
	if wBins <= 0 || wBins >= nb {
		wBins = nb / 2
	}
	magSq := d.magSqDec[:nb]
	for i, v := range spec {
		re, im := real(v), imag(v)
		magSq[i] = (re*re + im*im) * d.droopInv[i]
	}
	return math.Sqrt(aliasPairMaxSq(magSq, wBins))
}

// DetectOnset implements OnsetDetector.
func (d *DechirpOnsetDetector) DetectOnset(iq []complex128, sampleRate float64) (Onset, error) {
	if err := d.Params.Validate(); err != nil {
		return Onset{}, ErrOnsetNotFound
	}
	n := int(d.Params.SamplesPerChirp(sampleRate))
	if n < 16 || len(iq) < n+8 {
		return Onset{}, ErrOnsetNotFound
	}
	d.ensureScratch(n, sampleRate)
	dec := 1
	if !d.Exhaustive {
		dec = d.coarseDecimation(n, sampleRate)
		if dec > 1 {
			d.ensureDroop(n, dec)
		}
	}
	// Both refinement variants evaluate candidate tones on the globally
	// dechirped trace; the exhaustive one just recomputes each window from
	// scratch instead of sliding.
	d.ensureGlobalDechirp(iq, sampleRate)

	// 1. Coarse scan (quarter-chirp stride): record every window's fill
	// metric (alignment-insensitive). The decimated path batches every
	// window's dechirped-and-decimated block into one slab and runs a
	// single TransformMany through the shared plan — per-block results are
	// bit-identical to per-window transforms, the plan's permutation and
	// twiddle tables just stay hot across windows.
	mags := d.coarseMags[:0]
	ats := d.coarseAts[:0]
	bestMag := 0.0
	for at := 0; at+n <= len(iq); at += n / 4 {
		ats = append(ats, at)
	}
	if dec > 1 {
		m := n / dec
		plan := dsp.PlanFor(m)
		nfft := plan.Size()
		need := len(ats) * nfft
		if cap(d.coarseSlab) < need {
			d.coarseSlab = make([]complex128, need)
		}
		slab := d.coarseSlab[:need]
		for w, at := range ats {
			blk := slab[w*nfft : (w+1)*nfft]
			d.scratch.DechirpDecimateInto(blk[:m], iq[at:at+n], dec)
			for i := m; i < nfft; i++ {
				blk[i] = 0
			}
		}
		plan.TransformMany(slab)
		for w := range ats {
			mg := d.fillMagDecSpec(slab[w*nfft:(w+1)*nfft], sampleRate, dec)
			mags = append(mags, mg)
			if mg > bestMag {
				bestMag = mg
			}
		}
	} else {
		for _, at := range ats {
			mg := d.fillMag(iq, at, n, sampleRate)
			mags = append(mags, mg)
			if mg > bestMag {
				bestMag = mg
			}
		}
	}
	d.coarseMags, d.coarseAts = mags, ats
	if len(mags) < 3 || bestMag == 0 {
		return Onset{}, ErrOnsetNotFound
	}

	// 2. The preamble is the frame's beginning, so the EARLIEST full
	// window sits in its first chirp: the fill metric ramps linearly over
	// the chirp preceding the onset and plateaus at ≥0.71× max inside the
	// preamble, so the first window reaching anchorFraction of the max
	// starts within ~n/4 of the true onset (noise windows stay below
	// ~0.4× even at −20 dB). Anchoring there (rather than at the global
	// max) avoids the sync/SFD region, whose chirp grid is offset by the
	// SFD's 2.25-chirp length, and keeps exactly one true boundary inside
	// the ±n/2 apex-refinement range.
	// Each candidate anchor is refined and then validated against the
	// preamble's tone-train signature before being trusted: at −20 dB a
	// noise window's fill can cross the anchor fraction, and an anchor in
	// the lead-in noise is unrecoverable for the backward-only walk. A
	// true boundary is followed by further preamble chirps whose global-
	// dechirp tones are the apex tone shifted by exactly −j·W; a noise
	// anchor's tone set is unrelated to the true preamble's, so its slots
	// read noise and the candidate is rejected. The earliest refined
	// candidate is kept as the fallback so noise-only captures still
	// return an arbitrary pick (the threshold-free contract).
	apex, apexPeak := -1, 0.0
	fallback := -1
	for i, m := range mags {
		if m < anchorFraction*bestMag {
			continue
		}
		if fallback < 0 {
			fallback = ats[i]
		}
		a, pk := d.refineApex(iq, ats[i]-n/8, n, sampleRate)
		if pk > 0 && d.preambleConsistent(a, n, bestMag, sampleRate) {
			apex, apexPeak = a, pk
			break
		}
	}
	if apex < 0 {
		if fallback < 0 {
			return Onset{}, ErrOnsetNotFound
		}
		// No candidate validated (noise-only capture, interference): fall
		// back to the earliest candidate — re-refined, not replayed from
		// the loop, so the tone set the walk-back probes (d.thetaBuf,
		// overwritten by every refineApex) belongs to the apex it starts
		// from rather than to the last candidate tried.
		apex, apexPeak = d.refineApex(iq, fallback-n/8, n, sampleRate)
	}
	// The true onset lies within ~[anchor − n/4, anchor]; the refinement
	// centered there found the boundary. Noise dips can still delay the
	// anchor by whole chirps, so walk boundaries back while the preceding
	// chirp carries a coherent tone — at the true onset the preceding
	// window holds only noise.
	//
	// The walk-back decides on the candidate-tone metric of the single
	// aligned window [apex−n, apex) — which ends exactly at the current
	// boundary and so contains no chirp energy when the preceding slot is
	// noise. The threshold takes the coarse plateau bestMag (an absolute
	// scale in the same amplitude units as the tone metric) as its floor:
	// a relative-only cut against the apex peak collapses when the apex
	// itself sits in noise, while against bestMag the −20 dB gap stays
	// ~3σ (aligned chirp ≈ 0.85×best; a few-bin noise maximum ≈ 0.25×).
	// The tone values are evaluation-strategy-independent, so the
	// exhaustive and hierarchical variants take near-identical walk-back
	// decisions.
	for k := 0; apexPeak > 0 && k < d.Params.PreambleChirps; k++ {
		prev := apex - n
		thr := 0.55 * apexPeak
		if abs := 0.5 * bestMag; abs > thr {
			thr = abs
		}
		if d.toneMetric(prev, n, 0) < thr {
			break
		}
		apex, apexPeak = d.refineApex(iq, prev, n, sampleRate)
	}
	if apex < 0 {
		apex = 0
	}
	return Onset{Sample: apex, Time: float64(apex) / sampleRate}, nil
}

// refineApex locates the triangle apex nearest to the guess by sampling the
// candidate-tone magnitude metric on a fine grid and fitting straight lines
// to the rising and falling flanks; the apex is their intersection. Fitting
// both flanks averages the noise down by ~sqrt(points), which is where the
// low-SNR accuracy comes from.
//
// One anchor FFT at the guess identifies the dechirped tone; the metric per
// window is then the strongest response over a fixed candidate set — the
// anchor tone, its ±W neighbours (the tones of the adjacent preamble
// chirps, which carry the triangle's flanks), and a ±refineCombBins comb
// around each for scalloping margin. Restricting the peak search to the
// chirp's known tone set (instead of the full spectrum) keeps the flanks
// clean at low SNR, where the global noise maximum would otherwise flatten
// the triangle below ~0.6×peak.
//
// The candidate frequencies are fixed in the globally dechirped trace, so
// the hierarchical path evaluates them with a sliding DFT at O(bins) per
// sample of slide; the exhaustive reference recomputes every window from
// scratch with per-window Goertzel sums — the same numbers, brute force.
func (d *DechirpOnsetDetector) refineApex(iq []complex128, guess, n int, sampleRate float64) (apex int, peak float64) {
	step := max(n/256, 1)
	lo := guess - n/2
	hi := guess + n/2
	last := len(iq) - n
	// First valid position on the grid lo + m·step, m ≥ 0. Windows that do
	// not fit the capture are excluded — clamping them would flatten a
	// flank and bias the apex fit.
	at := lo
	if at < 0 {
		at += ((-at + step - 1) / step) * step
	}
	if at > hi || at > last {
		return guess, 0
	}
	// Anchor transform: locate the dominant tone near the guess.
	g := guess
	if g < 0 {
		g = 0
	}
	if g > last {
		g = last
	}
	spec := d.scratch.Dechirp(iq[g : g+n])
	b0, pkSq := dsp.PeakBinSq(spec)
	if pkSq == 0 {
		return guess, 0
	}
	nfft := len(spec)
	w := d.Params.Bandwidth
	k := w * w / float64(d.Params.ChipsPerSymbol())
	// A window-anchored spectrum is the global trace's windowed spectrum
	// shifted by μ·start, so the anchor peak at bin b0 maps to the global
	// frequency 2π·b0/nfft − μ·g.
	mu := 2 * math.Pi * k / (sampleRate * sampleRate)
	theta0 := 2*math.Pi*float64(b0)/float64(nfft) - mu*float64(g)
	dTheta := 2 * math.Pi * w / sampleRate
	dOmega := 2 * math.Pi / float64(nfft)
	thetas := d.thetaBuf[:0]
	for tone := -1; tone <= 1; tone++ {
		base := theta0 + float64(tone)*dTheta
		for o := -refineCombBins; o <= refineCombBins; o++ {
			thetas = append(thetas, base+float64(o)*dOmega)
		}
	}
	d.thetaBuf = thetas

	if !d.Exhaustive {
		d.sliding.Reset(d.z, at, n, thetas)
	}
	xs := d.fitXs[:0]
	ys := d.fitYs[:0]
	bestI, bestV := -1, 0.0
	for {
		var sq float64
		if d.Exhaustive {
			win := d.z[at : at+n]
			for _, th := range thetas {
				v := dsp.GoertzelDFT(win, th)
				if m := real(v)*real(v) + imag(v)*imag(v); m > sq {
					sq = m
				}
			}
		} else {
			sq = d.sliding.MaxMagSq()
		}
		v := math.Sqrt(sq)
		xs = append(xs, float64(at))
		ys = append(ys, v)
		if v > bestV {
			bestV = v
			bestI = len(ys) - 1
		}
		next := at + step
		if next > hi || next > last {
			break
		}
		if !d.Exhaustive {
			d.sliding.Advance(d.z, step)
		}
		at = next
	}
	d.fitXs, d.fitYs = xs, ys
	if bestI < 0 {
		return guess, 0
	}
	return fitApex(xs, ys, bestI), bestV
}

// toneMetric evaluates the candidate-tone magnitude of the single window
// [at, at+n) on the globally dechirped trace, using the frequency set of
// the most recent refineApex call (the adjacent-chirp tones sit in it by
// construction) shifted by shift radians/sample. Both detector variants
// evaluate it with per-window Goertzel sums — one dsp.GoertzelMany call —
// so anchor-validation and walk-back decisions are identical across
// evaluation strategies. Returns 0 when the window does not fit the
// capture.
func (d *DechirpOnsetDetector) toneMetric(at, n int, shift float64) float64 {
	if at < 0 || at+n > len(d.z) || len(d.thetaBuf) == 0 {
		return 0
	}
	omegas := d.toneOmegas[:0]
	for _, th := range d.thetaBuf {
		omegas = append(omegas, th+shift)
	}
	d.toneOmegas = omegas
	if cap(d.toneSums) < len(omegas) {
		d.toneSums = make([]complex128, len(omegas))
	}
	sums := d.toneSums[:len(omegas)]
	dsp.GoertzelMany(sums, d.z[at:at+n], omegas)
	best := 0.0
	for _, v := range sums {
		if m := real(v)*real(v) + imag(v)*imag(v); m > best {
			best = m
		}
	}
	return math.Sqrt(best)
}

// preambleConsistent validates a refined onset candidate against the
// preamble's structure: chirp j after the boundary dechirps globally to
// the apex window's tone set shifted by −j·2πW/rate, so a true boundary's
// following slots read near the coarse plateau bestMag while a noise
// anchor's slots — whose tone set is unrelated to the real preamble —
// read the noise floor. The comparison must be against the absolute
// plateau scale, not the candidate's own (possibly noise-depressed) apex
// peak: relative to the latter, a noise anchor's slots look half-strong. A
// majority of the available next three slots must reach 0.5·bestMag;
// candidates with no following slot in the capture pass vacuously.
func (d *DechirpOnsetDetector) preambleConsistent(apex, n int, bestMag, sampleRate float64) bool {
	dTheta := 2 * math.Pi * d.Params.Bandwidth / sampleRate
	avail, pass := 0, 0
	for j := 1; j <= 3; j++ {
		at := apex + j*n
		if at < 0 || at+n > len(d.z) {
			break
		}
		avail++
		if d.toneMetric(at, n, -float64(j)*dTheta) >= 0.5*bestMag {
			pass++
		}
	}
	return avail == 0 || 2*pass > avail
}

// fitApex intersects straight-line fits of the rising and falling flanks
// around the sampled maximum at index bestI; shared by both refinement
// variants so they differ only in how the metric samples are produced.
func fitApex(xs, ys []float64, bestI int) int {
	// Degenerate bracketing (apex at the sampled range's edge): fall back
	// to the raw maximum.
	if bestI < 8 || bestI > len(ys)-9 {
		return int(xs[bestI])
	}
	// Two-line fit on the flanks: use up to apexFitHalfWidth points each
	// side, excluding the rounded tip (±2 steps) where noise dominates
	// shape.
	leftLo := bestI - apexFitHalfWidth
	if leftLo < 0 {
		leftLo = 0
	}
	rightHi := bestI + apexFitHalfWidth
	if rightHi > len(ys)-1 {
		rightHi = len(ys) - 1
	}
	left := dsp.LinearRegression(xs[leftLo:max(bestI-1, leftLo+2)], ys[leftLo:max(bestI-1, leftLo+2)])
	right := dsp.LinearRegression(xs[min(bestI+2, rightHi-1):rightHi+1], ys[min(bestI+2, rightHi-1):rightHi+1])
	denom := left.Slope - right.Slope
	if denom <= 0 {
		return int(xs[bestI])
	}
	apex := (right.Intercept - left.Intercept) / denom
	// Guard against wild extrapolation.
	if apex < xs[0] || apex > xs[len(xs)-1] {
		return int(xs[bestI])
	}
	return int(math.Round(apex))
}
