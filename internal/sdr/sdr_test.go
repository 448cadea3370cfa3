package sdr

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"softlora/internal/dsp"
	"softlora/internal/lora"
	"softlora/internal/radio"
	"softlora/internal/stattest"
)

func toneCapture(freq float64, n int, rate float64) *radio.Capture {
	iq := make([]complex128, n)
	for i := range iq {
		iq[i] = cmplx.Exp(complex(0, 2*math.Pi*freq*float64(i)/rate))
	}
	return &radio.Capture{IQ: iq, Rate: rate, Start: 0}
}

func TestDownconvertRequiresRand(t *testing.T) {
	r := &Receiver{}
	if _, err := r.Downconvert(toneCapture(0, 16, DefaultSampleRate)); err != ErrNilRand {
		t.Errorf("err = %v, want ErrNilRand", err)
	}
}

func TestDownconvertShiftsFrequency(t *testing.T) {
	// A tone at f through a receiver with bias δRx lands at f − δRx.
	const rate = DefaultSampleRate
	const f = 50e3
	const bias = 20e3
	r := &Receiver{FrequencyBias: bias, Rand: rand.New(rand.NewSource(70))}
	cap, err := r.Downconvert(toneCapture(f, 1<<14, rate))
	if err != nil {
		t.Fatal(err)
	}
	// Measure the dominant frequency via phase slope.
	var sum float64
	for i := 1; i < len(cap.IQ); i++ {
		sum += cmplx.Phase(cap.IQ[i] * cmplx.Conj(cap.IQ[i-1]))
	}
	got := sum / float64(len(cap.IQ)-1) * rate / (2 * math.Pi)
	if math.Abs(got-(f-bias)) > 100 {
		t.Errorf("downconverted tone at %f Hz, want %f", got, f-bias)
	}
}

func TestDownconvertAppliesRandomPhase(t *testing.T) {
	// Two captures of the same input should get different θRx.
	r := &Receiver{Rand: rand.New(rand.NewSource(71))}
	in := toneCapture(0, 64, DefaultSampleRate)
	a, err := r.Downconvert(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Downconvert(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.PhaseRx-b.PhaseRx) < 1e-6 {
		t.Error("θRx should vary between captures")
	}
	// The applied rotation must equal exp(−jθRx) at t=0.
	want := cmplx.Exp(complex(0, -a.PhaseRx))
	if cmplx.Abs(a.IQ[0]-want) > 1e-9 {
		t.Errorf("sample 0 = %v, want %v", a.IQ[0], want)
	}
}

func TestQuantizationPreservesSignal(t *testing.T) {
	const rate = DefaultSampleRate
	r8 := &Receiver{ADCBits: 8, Rand: rand.New(rand.NewSource(72))}
	in := toneCapture(10e3, 1<<12, rate)
	out, err := r8.Downconvert(in)
	if err != nil {
		t.Fatal(err)
	}
	// 8-bit quantization SNR for a full-ish scale signal is ~40+ dB.
	var errP, sigP float64
	// Re-derive what the unquantized signal would be using PhaseRx.
	for i, v := range in.IQ {
		tt := float64(i) / rate
		p := -(2*math.Pi*r8.FrequencyBias*tt + out.PhaseRx)
		ideal := v * cmplx.Exp(complex(0, p))
		d := out.IQ[i] - ideal
		errP += real(d)*real(d) + imag(d)*imag(d)
		sigP += real(ideal)*real(ideal) + imag(ideal)*imag(ideal)
	}
	// 8-bit AGC quantization plus the 1 LSB input-referred noise gives
	// ~30 dB effective SNR for a full-ish scale tone.
	snr := 10 * math.Log10(sigP/errP)
	if snr < 25 {
		t.Errorf("quantization SNR = %f dB, want > 25", snr)
	}
}

func TestQuantizationLevels(t *testing.T) {
	// With 1-bit quantization the output has at most 2 distinct magnitudes
	// per component (±fullScale/2... just check the level count is small).
	r := &Receiver{ADCBits: 2, Rand: rand.New(rand.NewSource(73))}
	in := toneCapture(10e3, 4096, DefaultSampleRate)
	out, err := r.Downconvert(in)
	if err != nil {
		t.Fatal(err)
	}
	levels := map[float64]bool{}
	for _, v := range out.IQ {
		levels[real(v)] = true
	}
	if len(levels) > 4 {
		t.Errorf("2-bit ADC produced %d levels, want <= 4", len(levels))
	}
}

func TestReceiverNoise(t *testing.T) {
	r := &Receiver{NoiseFigurePowerdBm: -40, Rand: rand.New(rand.NewSource(74))}
	silent := &radio.Capture{IQ: make([]complex128, 8192), Rate: DefaultSampleRate}
	out, err := r.Downconvert(silent)
	if err != nil {
		t.Fatal(err)
	}
	var p float64
	for _, v := range out.IQ {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= float64(len(out.IQ))
	if math.Abs(radio.PowerTodBm(p)+40) > 0.5 {
		t.Errorf("receiver noise = %f dBm, want -40", radio.PowerTodBm(p))
	}
}

func TestEndToEndChirpThroughSDR(t *testing.T) {
	// A chirp with δTx through a channel and an SDR with δRx must show a
	// dechirped tone at δTx − δRx (the paper's observable δ).
	const rate = DefaultSampleRate
	const dTx = -22.8e3
	const dRx = -3e3
	p := lora.DefaultParams(7)
	spec := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, FrequencyOffset: dTx}
	iq := spec.Synthesize(rate)
	chanCap := &radio.Capture{IQ: iq, Rate: rate}
	r := &Receiver{FrequencyBias: dRx, Rand: rand.New(rand.NewSource(76))}
	out, err := r.Downconvert(chanCap)
	if err != nil {
		t.Fatal(err)
	}
	ref := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth}
	refIQ := ref.Synthesize(rate)
	n := len(out.IQ)
	if len(refIQ) < n {
		n = len(refIQ)
	}
	// Measure residual tone frequency by phase slope of x*conj(ref).
	var sum float64
	prev := complex(0, 0)
	count := 0
	for i := 0; i < n; i++ {
		v := out.IQ[i] * cmplx.Conj(refIQ[i])
		if i > 0 {
			sum += cmplx.Phase(v * cmplx.Conj(prev))
			count++
		}
		prev = v
	}
	got := sum / float64(count) * rate / (2 * math.Pi)
	want := dTx - dRx
	if math.Abs(got-want) > 200 {
		t.Errorf("observed δ = %f Hz, want %f", got, want)
	}
}

// TestDownconvertPooledSteadyState pins the pooled front end: once the
// capture pool is warm, Downconvert + Release run with only the constant
// per-call bookkeeping (the Capture struct and the pool's box), no
// per-sample buffers.
func TestDownconvertPooledSteadyState(t *testing.T) {
	r := &Receiver{FrequencyBias: -3e3, ADCBits: 8, Rand: rand.New(rand.NewSource(80))}
	in := toneCapture(10e3, 1<<14, DefaultSampleRate)
	warm, err := r.Downconvert(in)
	if err != nil {
		t.Fatal(err)
	}
	warm.Release()
	allocs := testing.AllocsPerRun(20, func() {
		out, err := r.Downconvert(in)
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	})
	if allocs > 2 {
		t.Errorf("Downconvert+Release allocated %v times per run in steady state, want <= 2", allocs)
	}
}

// The receiver's Gaussian draws moved from rand.NormFloat64 to the buffered
// ziggurat source; exact sequences changed, so this is the call site's share
// of the parity-of-statistics gate: noise-figure injection on a silent
// capture must still be white Gaussian at the configured power.
func TestReceiverNoiseGaussianStatistics(t *testing.T) {
	const n = 1 << 17
	r := &Receiver{
		NoiseFigurePowerdBm: -40,
		Rand:                rand.New(rand.NewSource(9)),
	}
	out, err := r.Downconvert(&radio.Capture{IQ: make([]complex128, n), Rate: DefaultSampleRate})
	if err != nil {
		t.Fatal(err)
	}
	sigma := math.Sqrt(radio.DBmToPower(r.NoiseFigurePowerdBm) / 2)
	comps := make([]float64, 0, 2*n)
	for _, v := range out.IQ {
		comps = append(comps, real(v), imag(v))
	}
	stattest.CheckGaussian(t, comps, sigma)
}

// Same gate for the ADC dither: quantizing a constant mid-scale signal makes
// the reconstruction error one LSB of Gaussian dither plus bounded
// quantization error; its mean and variance must match (dither sigma = 1 LSB,
// plus the uniform quantization term) and stay white.
func TestQuantizerDitherStatistics(t *testing.T) {
	const n = 1 << 17
	r := &Receiver{ADCBits: 8, Rand: rand.New(rand.NewSource(11))}
	iq := make([]complex128, n)
	for i := range iq {
		iq[i] = complex(1, -1)
	}
	out, err := r.Downconvert(&radio.Capture{IQ: iq, Rate: DefaultSampleRate})
	if err != nil {
		t.Fatal(err)
	}
	// Re-apply the receiver phase rotation to the input so the residual
	// against the quantized output is dither alone.
	rot := dsp.NewRotator(1, -out.PhaseRx, -r.FrequencyBias, 1/out.Rate)
	clean := make([]complex128, n)
	rot.MulInto(clean, iq)
	errs := make([]float64, 0, 2*n)
	for i, v := range out.IQ {
		errs = append(errs, real(v)-real(clean[i]), imag(v)-imag(clean[i]))
	}
	mean, variance, _ := stattest.Moments(errs)
	// LSB for full scale 4*RMS over 128 levels; RMS per component is 1.
	lsb := 4.0 / 128
	if math.Abs(mean) > 0.1*lsb {
		t.Errorf("dither mean = %g, want ~0 (LSB %g)", mean, lsb)
	}
	// Gaussian dither of 1 LSB sigma + uniform rounding of 1 LSB width:
	// variance = lsb^2 + lsb^2/12, within sampling tolerance.
	want := lsb * lsb * (1 + 1.0/12)
	if variance < 0.85*want || variance > 1.15*want {
		t.Errorf("dither variance = %g, want ≈ %g", variance, want)
	}
	if sf := stattest.SpectralFlatness(errs, 1024); sf < 0.95 {
		t.Errorf("dither spectral flatness = %.4f, want >= 0.95", sf)
	}
}

// quantizeRef is the per-sample quantizer quantize replaced: it sums the
// capture's power in its own pass, then draws the I and Q dither with one
// Norm call each per sample.
func quantizeRef(x []complex128, bits int, gauss *dsp.GaussianSource) {
	var pw float64
	for _, v := range x {
		pw += real(v)*real(v) + imag(v)*imag(v)
	}
	if pw == 0 {
		return
	}
	rms := math.Sqrt(pw / float64(len(x)) / 2)
	fullScale := 4 * rms
	levels := float64(int(1) << (bits - 1))
	scale := levels / fullScale
	inv := fullScale / levels
	hi := levels - 1
	for i, v := range x {
		re := math.Floor(real(v)*scale + gauss.Norm() + 0.5)
		im := math.Floor(imag(v)*scale + gauss.Norm() + 0.5)
		if re > hi {
			re = hi
		} else if re < -levels {
			re = -levels
		}
		if im > hi {
			im = hi
		} else if im < -levels {
			im = -levels
		}
		x[i] = complex(re*inv, im*inv)
	}
}

// TestQuantizeMatchesPerSampleForm pins the block-dithered quantize, fed
// the power its caller summed, to quantizeRef bit for bit: lengths around
// the block size, a capture with clipped peaks on both rails, NaN and ±Inf
// samples (which make every output non-finite in both forms), an all-zero
// capture, and 2- and 8-bit converters. The Gaussian streams must also end
// in the same place.
func TestQuantizeMatchesPerSampleForm(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	captures := map[string][]complex128{}
	for _, n := range []int{0, 1, 2, quantBlock - 1, quantBlock, quantBlock + 1, 1000, 14628} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		captures[fmt.Sprintf("gaussian-%d", n)] = x
	}
	clipped := make([]complex128, 3000)
	for i := range clipped {
		clipped[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		if i%97 == 0 {
			clipped[i] *= 40 // far beyond the 4×RMS full scale: clamps to either rail
		}
	}
	captures["clipped"] = clipped
	for name, bad := range map[string]complex128{
		"nan":  complex(math.NaN(), 0),
		"+inf": complex(math.Inf(1), 1),
		"-inf": complex(0, math.Inf(-1)),
	} {
		x := make([]complex128, 700)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x[333] = bad
		captures[name] = x
	}
	captures["zero"] = make([]complex128, 500)
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for name, x := range captures {
		for _, bits := range []int{2, 8} {
			var gRef, g dsp.GaussianSource
			gRef.Seed(int64(len(x) + bits))
			g.Seed(int64(len(x) + bits))
			want := append([]complex128(nil), x...)
			quantizeRef(want, bits, &gRef)
			got := append([]complex128(nil), x...)
			var pw float64
			for _, v := range got {
				pw += real(v)*real(v) + imag(v)*imag(v)
			}
			quantize(got, pw, bits, &g)
			for i := range got {
				if !same(real(got[i]), real(want[i])) || !same(imag(got[i]), imag(want[i])) {
					t.Fatalf("%s, %d bits: sample %d = %v, per-sample form %v", name, bits, i, got[i], want[i])
				}
			}
			if a, b := g.Norm(), gRef.Norm(); a != b {
				t.Fatalf("%s, %d bits: streams diverge after quantizing: next draw %v vs %v", name, bits, a, b)
			}
		}
	}
}

// TestDownconvertPassesRotationPower checks the wiring of the fused power:
// a full Downconvert, with and without noise-figure injection, equals the
// rotation, the injection and quantizeRef run as separate passes on the
// same random draws.
func TestDownconvertPassesRotationPower(t *testing.T) {
	in := toneCapture(17e3, 5000, DefaultSampleRate)
	for _, nf := range []float64{0, -60} {
		r := &Receiver{FrequencyBias: -3e3, ADCBits: 8, NoiseFigurePowerdBm: nf, Rand: rand.New(rand.NewSource(35))}
		refRand := rand.New(rand.NewSource(35))
		out, err := r.Downconvert(in)
		if err != nil {
			t.Fatal(err)
		}
		theta := refRand.Float64() * 2 * math.Pi
		var g dsp.GaussianSource
		g.Seed(refRand.Int63())
		want := make([]complex128, len(in.IQ))
		rot := dsp.NewRotator(1, -theta, -r.FrequencyBias, 1/in.Rate)
		rot.MulInto(want, in.IQ)
		if nf != 0 {
			sigma := math.Sqrt(radio.DBmToPower(nf) / 2)
			for i := range want {
				re, im := g.NormPair()
				want[i] += complex(re*sigma, im*sigma)
			}
		}
		quantizeRef(want, 8, &g)
		for i := range want {
			if out.IQ[i] != want[i] {
				t.Fatalf("noise figure %v dBm: sample %d = %v, separate passes %v", nf, i, out.IQ[i], want[i])
			}
		}
		out.Release()
	}
}
