package lora

import (
	"math"

	"softlora/internal/dsp"
)

// ChirpSpec describes one CSS chirp at equivalent baseband.
type ChirpSpec struct {
	// SF and Bandwidth define the sweep: duration 2^SF/W, sweep width W.
	SF        int
	Bandwidth float64
	// Symbol is the cyclic shift encoding data, in [0, 2^SF). Zero yields
	// the base chirp used in preambles.
	Symbol int
	// Down selects a down chirp (frequency sweeping from +W/2 to −W/2),
	// used by the LoRa SFD and by LoRaWAN downlink preambles.
	Down bool
	// Amplitude is the waveform amplitude A (default 0 means 1).
	Amplitude float64
	// Phase is the phase θ at the chirp start, in radians.
	Phase float64
	// FrequencyOffset is the oscillator bias δ in Hz, rotating the whole
	// chirp by exp(j*2π*δ*t).
	FrequencyOffset float64
}

// Duration returns the chirp duration 2^SF / W in seconds.
func (c ChirpSpec) Duration() float64 {
	return float64(int(1)<<c.SF) / c.Bandwidth
}

// amplitude returns the effective amplitude (1 when unset).
func (c ChirpSpec) amplitude() float64 {
	if c.Amplitude == 0 {
		return 1
	}
	return c.Amplitude
}

// PhaseAt returns the instantaneous phase (radians) of the chirp at time
// tau seconds after its start, for tau in [0, Duration].
//
// For the base up chirp (Symbol 0, Down false) this is the paper's Eq. (5):
//
//	Θ(τ) = π*W²/2^SF * τ² − π*W*τ + 2π*δ*τ + θ.
//
// Data symbols shift the start frequency by Symbol*W/2^SF and fold back by W
// when the sweep reaches +W/2 (up) or −W/2 (down), keeping phase continuous.
func (c ChirpSpec) PhaseAt(tau float64) float64 {
	w := c.Bandwidth
	n := float64(int(1) << c.SF)
	k := w * w / n // sweep rate in Hz/s
	s := float64(c.Symbol) * w / n
	var phase float64
	if !c.Down {
		f0 := -w/2 + s
		foldTau := (w/2 - f0) / k // time at which the sweep hits +W/2
		phase = 2 * math.Pi * (f0*tau + k*tau*tau/2)
		if tau > foldTau {
			phase -= 2 * math.Pi * w * (tau - foldTau)
		}
	} else {
		f0 := w/2 - s
		foldTau := (f0 + w/2) / k // time at which the sweep hits −W/2
		phase = 2 * math.Pi * (f0*tau - k*tau*tau/2)
		if tau > foldTau {
			phase += 2 * math.Pi * w * (tau - foldTau)
		}
	}
	return phase + 2*math.Pi*c.FrequencyOffset*tau + c.Phase
}

// EndPhase returns the phase at the end of the chirp, used to keep a
// multi-chirp waveform phase-continuous.
func (c ChirpSpec) EndPhase() float64 { return c.PhaseAt(c.Duration()) }

// Synthesize renders the chirp on a uniform sample grid starting at the
// chirp onset. The trace has floor(Duration*sampleRate) samples.
func (c ChirpSpec) Synthesize(sampleRate float64) []complex128 {
	out := make([]complex128, int(c.Duration()*sampleRate))
	c.addScaled(out, sampleRate, 0, c.Duration())
	return out
}

// AddTo adds the chirp into dst, where dst sample i represents continuous
// time i/sampleRate and the chirp starts at startTime seconds (which may
// fall between samples — this is how sub-sample onset offsets are
// simulated). Samples outside dst or outside the chirp support are ignored.
func (c ChirpSpec) AddTo(dst []complex128, sampleRate, startTime float64) {
	c.addScaled(dst, sampleRate, startTime, c.Duration())
}

// sweepSegments describes the chirp's piecewise-quadratic phase on the
// sample grid tau_i = i·dt − startTime: the fold splits the support into
// (up to) two runs, each a single quadratic that one dsp.Oscillator renders.
//
// addScaled is the shared render core behind Synthesize, AddTo and the
// truncated SFD chirp: it adds amplitude·exp(j·PhaseAt(tau_i)) into dst for
// every in-range sample with tau_i ∈ [0, min(Duration, maxDur)), at two
// complex multiplies per sample.
func (c ChirpSpec) addScaled(dst []complex128, sampleRate, startTime, maxDur float64) {
	dur := c.Duration()
	if maxDur < dur {
		dur = maxDur
	}
	dt := 1 / sampleRate
	first := int(math.Ceil(startTime * sampleRate))
	if first < 0 {
		first = 0
	}
	last := int(math.Floor((startTime + dur) * sampleRate))
	if last >= len(dst) {
		last = len(dst) - 1
	}
	// Trim the float rounding slop off both ends so every remaining sample
	// satisfies tau ∈ [0, dur) exactly as the per-sample guards used to.
	for first <= last && float64(first)*dt-startTime < 0 {
		first++
	}
	for last >= first && float64(last)*dt-startTime >= dur {
		last--
	}
	if first > last {
		return
	}
	a := c.amplitude()
	fold := c.foldSplit(first, last, -startTime, dt)
	if fold >= first {
		osc := c.segmentOscillator(a, float64(first)*dt-startTime, false, dt)
		osc.AddTo(dst[first : fold+1])
	}
	if fold < last {
		from := fold + 1
		if from < first {
			from = first
		}
		osc := c.segmentOscillator(a, float64(from)*dt-startTime, true, dt)
		osc.AddTo(dst[from : last+1])
	}
}

// foldSplit returns the last sample index i in [first, last] on the
// pre-fold side of the sweep, where sample i sits at tau = tau0 + i·dt and
// PhaseAt applies the fold correction strictly after foldTau. The float
// estimate is walked into exact agreement with the per-sample comparison,
// so the segment split can never disagree with PhaseAt at the boundary.
// Returns first−1 when every sample is post-fold.
func (c ChirpSpec) foldSplit(first, last int, tau0, dt float64) int {
	w := c.Bandwidth
	n := float64(int(1) << c.SF)
	k := w * w / n
	s := float64(c.Symbol) * w / n
	foldTau := (w - s) / k // both sweeps hit the band edge here
	fold := int(math.Floor((foldTau - tau0) / dt))
	if fold > last {
		fold = last
	}
	for fold >= first && tau0+float64(fold)*dt > foldTau {
		fold--
	}
	for fold < last && tau0+float64(fold+1)*dt <= foldTau {
		fold++
	}
	return fold
}

// segmentOscillator seeds an oscillator reproducing
// amp·exp(j·PhaseAt(tau + i·dt)) over one fold-free run of the sweep
// (postFold selects which side of the fold tau lies on).
func (c ChirpSpec) segmentOscillator(amp, tau float64, postFold bool, dt float64) dsp.Oscillator {
	w := c.Bandwidth
	n := float64(int(1) << c.SF)
	k := w * w / n
	s := float64(c.Symbol) * w / n
	// d(PhaseAt)/dτ/2π: the linear sweep, folded back by W past foldTau.
	var freq, sweep float64
	if !c.Down {
		freq = -w/2 + s + k*tau
		sweep = k
		if postFold {
			freq -= w
		}
	} else {
		freq = w/2 - s - k*tau
		sweep = -k
		if postFold {
			freq += w
		}
	}
	return dsp.NewOscillator(amp, c.PhaseAt(tau), freq+c.FrequencyOffset, sweep, dt)
}
