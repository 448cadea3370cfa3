package lora

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"softlora/internal/dsp"
)

func TestChirpDuration(t *testing.T) {
	c := ChirpSpec{SF: 7, Bandwidth: 125e3}
	if got := c.Duration(); math.Abs(got-1.024e-3) > 1e-12 {
		t.Errorf("duration = %g, want 1.024 ms", got)
	}
}

func TestBaseUpChirpPhaseMatchesPaperEquation(t *testing.T) {
	// Paper Eq. (5): Θ(t) = π W²/2^S t² − π W t + 2π δ t + θ.
	const w = 125e3
	const sf = 7
	const delta = -22.8e3
	const theta = 0.7
	c := ChirpSpec{SF: sf, Bandwidth: w, FrequencyOffset: delta, Phase: theta}
	n := float64(int(1) << sf)
	for _, tau := range []float64{0, 1e-4, 5e-4, 1.023e-3} {
		want := math.Pi*w*w/n*tau*tau - math.Pi*w*tau + 2*math.Pi*delta*tau + theta
		if got := c.PhaseAt(tau); math.Abs(got-want) > 1e-6 {
			t.Errorf("PhaseAt(%g) = %f, want %f", tau, got, want)
		}
	}
}

// instFreq returns the instantaneous frequency d(PhaseAt)/dτ / 2π by a
// central difference, exact for the quadratic phase between folds.
func instFreq(c ChirpSpec, tau float64) float64 {
	const h = 1e-7
	return (c.PhaseAt(tau+h) - c.PhaseAt(tau-h)) / (4 * math.Pi * h)
}

func TestChirpFrequencySweep(t *testing.T) {
	c := ChirpSpec{SF: 7, Bandwidth: 125e3}
	if got := instFreq(c, 0); math.Abs(got+62.5e3) > 1 {
		t.Errorf("start freq = %f, want -62.5 kHz", got)
	}
	mid := c.Duration() / 2
	if got := instFreq(c, mid); math.Abs(got) > 1e3 {
		t.Errorf("mid freq = %f, want ~0", got)
	}
	d := ChirpSpec{SF: 7, Bandwidth: 125e3, Down: true}
	if got := instFreq(d, 0); math.Abs(got-62.5e3) > 1 {
		t.Errorf("down start freq = %f, want +62.5 kHz", got)
	}
}

func TestChirpSymbolShiftsStartFrequency(t *testing.T) {
	const sf = 7
	c := ChirpSpec{SF: sf, Bandwidth: 125e3, Symbol: 64}
	// Symbol 64 of 128: start at -62.5k + 64/128*125k = 0 Hz.
	if got := instFreq(c, 0); math.Abs(got) > 1 {
		t.Errorf("start freq = %f, want 0", got)
	}
	// After folding (half a chirp in), frequency wraps to negative.
	tau := c.Duration() * 0.75
	if got := instFreq(c, tau); got > 0 {
		t.Errorf("post-fold freq = %f, want negative", got)
	}
}

func TestSynthesizeLengthAndAmplitude(t *testing.T) {
	c := ChirpSpec{SF: 7, Bandwidth: 125e3, Amplitude: 2}
	const rate = 2.4e6
	x := c.Synthesize(rate)
	wantLen := int(c.Duration() * rate)
	if len(x) != wantLen {
		t.Fatalf("len = %d, want %d", len(x), wantLen)
	}
	for i, v := range x {
		if math.Abs(cmplx.Abs(v)-2) > 1e-9 {
			t.Fatalf("sample %d magnitude %f, want 2", i, cmplx.Abs(v))
		}
	}
}

func TestChirpPhaseContinuityAtFold(t *testing.T) {
	// Phase must be continuous through the fold point for any symbol.
	f := func(symRaw uint8) bool {
		sym := int(symRaw) % 128
		c := ChirpSpec{SF: 7, Bandwidth: 125e3, Symbol: sym}
		n := 128.0
		foldTau := (125e3/2 - (-125e3/2 + float64(sym)*125e3/n)) / (125e3 * 125e3 / n)
		if foldTau >= c.Duration() {
			return true // no fold for symbol 0
		}
		eps := 1e-9
		before := c.PhaseAt(foldTau - eps)
		after := c.PhaseAt(foldTau + eps)
		// Phases should differ by a tiny amount modulo 2π.
		d := math.Mod(after-before, 2*math.Pi)
		if d > math.Pi {
			d -= 2 * math.Pi
		}
		if d < -math.Pi {
			d += 2 * math.Pi
		}
		return math.Abs(d) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFrequencyOffsetShiftsSpectrum(t *testing.T) {
	// The FB should shift the whole chirp spectrum; verify via dechirping
	// with an ideal conjugate chirp and locating the FFT peak.
	const rate = 2.4e6
	const delta = 25e3
	c := ChirpSpec{SF: 7, Bandwidth: 125e3, FrequencyOffset: delta}
	x := c.Synthesize(rate)
	ref := ChirpSpec{SF: 7, Bandwidth: 125e3}
	refIQ := ref.Synthesize(rate)
	prod := make([]complex128, len(x))
	for i := range x {
		prod[i] = x[i] * cmplx.Conj(refIQ[i])
	}
	spec := dsp.FFT(prod)
	peak, best := 0, 0.0
	for i, v := range spec {
		if m := cmplx.Abs(v); m > best {
			best = m
			peak = i
		}
	}
	got := float64(peak) / float64(len(spec)) * rate
	if got > rate/2 {
		got -= rate
	}
	binW := rate / float64(len(spec))
	if math.Abs(got-delta) > binW {
		t.Errorf("dechirped tone at %f Hz, want %f", got, delta)
	}
}

func TestAddToFractionalStart(t *testing.T) {
	const rate = 2.4e6
	c := ChirpSpec{SF: 7, Bandwidth: 125e3}
	dst := make([]complex128, 4096)
	start := 100.4 / rate // between samples 100 and 101
	c.AddTo(dst, rate, start)
	for i := 0; i <= 100; i++ {
		if dst[i] != 0 {
			t.Fatalf("sample %d nonzero before onset", i)
		}
	}
	if dst[101] == 0 {
		t.Fatal("sample 101 should hold the chirp")
	}
}

func TestAddToOutOfRange(t *testing.T) {
	c := ChirpSpec{SF: 7, Bandwidth: 125e3}
	dst := make([]complex128, 16)
	c.AddTo(dst, 2.4e6, 1.0) // starts far beyond dst
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("sample %d modified", i)
		}
	}
	c.AddTo(dst, 2.4e6, -1.0) // ended before dst begins
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("sample %d modified by past chirp", i)
		}
	}
}

func TestEndPhaseMatchesPhaseAtDuration(t *testing.T) {
	c := ChirpSpec{SF: 8, Bandwidth: 125e3, Phase: 1.1, FrequencyOffset: -20e3}
	if c.EndPhase() != c.PhaseAt(c.Duration()) {
		t.Error("EndPhase mismatch")
	}
}

// directTrigAddTo is the pre-oscillator renderer (per-sample PhaseAt +
// Sincos), kept as the accuracy reference for the recurrence engine.
func directTrigAddTo(c ChirpSpec, dst []complex128, sampleRate, startTime, maxDur float64) {
	dur := c.Duration()
	if maxDur < dur {
		dur = maxDur
	}
	a := c.Amplitude
	if a == 0 {
		a = 1
	}
	first := int(math.Ceil(startTime * sampleRate))
	if first < 0 {
		first = 0
	}
	last := int(math.Floor((startTime + dur) * sampleRate))
	if last >= len(dst) {
		last = len(dst) - 1
	}
	dt := 1 / sampleRate
	for i := first; i <= last; i++ {
		tau := float64(i)*dt - startTime
		if tau < 0 || tau >= dur {
			continue
		}
		s, co := math.Sincos(c.PhaseAt(tau))
		dst[i] += complex(a*co, a*s)
	}
}

// oscillatorCases sweeps the chirp shapes the synthesis path renders:
// SF 7–12, both orientations, folding symbols, realistic oscillator
// offsets, non-unit amplitude and non-zero start phase.
func oscillatorCases() []ChirpSpec {
	var cases []ChirpSpec
	for sf := 7; sf <= 12; sf++ {
		n := int(1) << sf
		cases = append(cases,
			ChirpSpec{SF: sf, Bandwidth: 125e3},
			ChirpSpec{SF: sf, Bandwidth: 125e3, Symbol: n / 3, FrequencyOffset: -36e3, Phase: 0.9},
			ChirpSpec{SF: sf, Bandwidth: 125e3, Symbol: n - 1, Down: true, FrequencyOffset: 17.3e3, Amplitude: 0.35},
		)
	}
	return cases
}

// TestAddToMatchesDirectTrig is the oscillator-vs-Sincos parity property:
// the recurrence renderer must match the direct per-sample renderer to
// better than 1e-9 in each component, across SFs, symbols, orientations,
// offsets and fractional start times.
func TestAddToMatchesDirectTrig(t *testing.T) {
	const rate = 2.4e6
	for _, c := range oscillatorCases() {
		for _, start := range []float64{0, 33.37 / rate, -0.4 * c.Duration()} {
			n := int(c.Duration()*rate) + 64
			got := make([]complex128, n)
			want := make([]complex128, n)
			c.AddTo(got, rate, start)
			directTrigAddTo(c, want, rate, start, c.Duration())
			for i := range got {
				if d := cmplx.Abs(got[i] - want[i]); d > 1e-9 {
					t.Fatalf("%+v start %g: sample %d differs by %g", c, start, i, d)
				}
			}
		}
	}
}

func TestSynthesizeMatchesDirectTrig(t *testing.T) {
	const rate = 2.4e6
	for _, c := range oscillatorCases() {
		got := c.Synthesize(rate)
		want := make([]complex128, len(got))
		directTrigAddTo(c, want, rate, 0, c.Duration())
		for i := range got {
			if d := cmplx.Abs(got[i] - want[i]); d > 1e-9 {
				t.Fatalf("%+v: sample %d differs by %g", c, i, d)
			}
		}
	}
}
