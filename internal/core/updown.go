package core

import (
	"fmt"
	"math"

	"softlora/internal/lora"
)

// UpDownEstimator is an extension beyond the paper (DESIGN.md §6) that
// removes the fundamental coupling between PHY-timestamp error and
// frequency-bias error.
//
// A single up chirp cannot distinguish a frequency bias δ from a timing
// misalignment Δτ: the segment looks identical for δ' = δ + k·Δτ (k is the
// chirp sweep rate), so every single-chirp estimator inherits k·Δτ of bias
// from the onset detector — ~122 Hz per µs at SF7/125 kHz. Dechirping a
// preamble *up* chirp yields a tone at δ + k·Δτ, while dechirping an SFD
// *down* chirp yields δ − k·Δτ; their average recovers δ exactly and their
// difference refines the timing:
//
//	δ  = (f_up + f_down) / 2
//	Δτ = −(f_up − f_down) / (2k)  (the onset-correction to apply)
//
// The cost is a longer SDR capture: the SFD begins PreambleChirps+2 chirp
// times after the onset, so the capture must span ~12.5 chirps instead of
// the paper's 2.
//
// Both tones are read through the gateway's one dechirped-tone readout,
// the coarse→zoom finder DechirpFFTEstimator runs (toneFinder): one finder
// keyed to the up-chirp template, one to the down-chirp template.
//
// An estimator instance holds reusable scratch (the two finders' templates,
// FFT plans and buffers) and is not safe for concurrent use: one instance
// per worker goroutine.
type UpDownEstimator struct {
	Params lora.Params

	up   toneFinder
	down toneFinder
}

// UpDownResult is the joint estimate.
type UpDownResult struct {
	// DeltaHz is the frequency bias, free of timing-induced error.
	DeltaHz float64
	// TimingCorrection is Δτ in seconds: add it to the detected onset to
	// refine the PHY timestamp (positive means the true onset is later
	// than detected).
	TimingCorrection float64
	// FUp and FDown are the raw dechirped tone frequencies (diagnostics).
	FUp, FDown float64
}

// sweepRate returns k = W²/2^SF in Hz/s.
func (u *UpDownEstimator) sweepRate() float64 {
	w := u.Params.Bandwidth
	return w * w / float64(u.Params.ChipsPerSymbol())
}

// Estimate runs the joint estimation on a capture whose preamble onset was
// detected at onsetSample. The capture must extend at least
// PreambleChirps + 3 chirp times past the onset (through the first full
// SFD down chirp).
func (u *UpDownEstimator) Estimate(iq []complex128, onsetSample int, sampleRate float64) (UpDownResult, error) {
	if err := u.Params.Validate(); err != nil {
		return UpDownResult{}, fmt.Errorf("core: %w", err)
	}
	spc := u.Params.SamplesPerChirp(sampleRate) // fractional at 2.4 Msps
	n := int(spc)
	if n < 8 {
		return UpDownResult{}, fmt.Errorf("%w: %d samples per chirp", ErrChirpTooShort, n)
	}
	if onsetSample < 0 {
		return UpDownResult{}, fmt.Errorf("core: negative onset sample %d", onsetSample)
	}
	// Chirp boundaries sit at fractional sample positions (2457.6 samples
	// per SF7 chirp at 2.4 Msps); round each boundary independently so the
	// error never accumulates across the 10-chirp stride to the SFD.
	upStart := onsetSample + int(math.Round(spc)) // second preamble chirp
	downStart := onsetSample + int(math.Round(float64(u.Params.PreambleChirps+2)*spc))
	if downStart+n > len(iq) {
		return UpDownResult{}, fmt.Errorf("%w: capture ends before the SFD (need %d samples)", ErrChirpTooShort, downStart+n)
	}
	u.up.ensure(u.Params, n, sampleRate, false)
	u.down.ensure(u.Params, n, sampleRate, true)
	fUp, err := u.up.find(iq[upStart:upStart+n], sampleRate)
	if err != nil {
		return UpDownResult{}, err
	}
	fDown, err := u.down.find(iq[downStart:downStart+n], sampleRate)
	if err != nil {
		return UpDownResult{}, err
	}
	k := u.sweepRate()
	// (f_up − f_down)/(2k) measures how LATE the believed onset is; the
	// correction to add to the detected onset is its negation.
	return UpDownResult{
		DeltaHz:          (fUp + fDown) / 2,
		TimingCorrection: -(fUp - fDown) / (2 * k),
		FUp:              fUp,
		FDown:            fDown,
	}, nil
}
