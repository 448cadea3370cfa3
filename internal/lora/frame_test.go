package lora

import (
	"bytes"
	"math"
	"math/cmplx"
	"testing"

	"softlora/internal/dsp"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{PayloadLen: 42, CodingRate: 3, HasCRC: true}
	got, err := parseHeader(h.bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header round trip: %+v vs %+v", got, h)
	}
}

func TestHeaderChecksumDetectsCorruption(t *testing.T) {
	h := Header{PayloadLen: 10, CodingRate: 1, HasCRC: true}
	b := h.bytes()
	b[0] ^= 0xFF
	if _, err := parseHeader(b); err == nil {
		t.Error("corrupted header accepted")
	}
}

func TestFrameSymbolsDeterministic(t *testing.T) {
	f := Frame{Params: DefaultParams(7), Payload: []byte("hello")}
	a, err := f.Symbols()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := f.Symbols()
	if len(a) != len(b) {
		t.Fatal("nondeterministic symbol count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic symbols")
		}
	}
}

func TestFramePayloadTooLong(t *testing.T) {
	f := Frame{Params: DefaultParams(7), Payload: make([]byte, 256)}
	if _, err := f.Symbols(); err == nil {
		t.Error("expected ErrPayloadTooLong")
	}
}

func TestModulateDuration(t *testing.T) {
	const rate = 1e6
	f := Frame{Params: DefaultParams(7), Payload: []byte("0123456789")}
	iq, err := f.Modulate(Impairments{}, rate)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := f.ModulatedDuration()
	if err != nil {
		t.Fatal(err)
	}
	wantLen := int(math.Ceil(dur * rate))
	if len(iq) != wantLen {
		t.Errorf("len = %d, want %d", len(iq), wantLen)
	}
	// Nearly all samples carry unit-amplitude signal.
	nonzero := 0
	for _, v := range iq {
		if cmplx.Abs(v) > 0.5 {
			nonzero++
		}
	}
	if float64(nonzero) < 0.98*float64(len(iq)) {
		t.Errorf("only %d/%d samples modulated", nonzero, len(iq))
	}
}

func TestModulateDemodulateRoundTrip(t *testing.T) {
	const rate = 500e3 // 4x oversampling keeps the test fast
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x23}
	f := Frame{Params: DefaultParams(7), Payload: payload}
	iq, err := f.Modulate(Impairments{InitialPhase: 1.23}, rate)
	if err != nil {
		t.Fatal(err)
	}
	d := &Demodulator{Params: f.Params, SampleRate: rate}
	res, err := d.Demodulate(iq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatalf("payload = %x, want %x", res.Payload, payload)
	}
	if !res.CRCOK {
		t.Error("CRC check failed")
	}
	if !res.CodecOK {
		t.Error("codec flagged inconsistency")
	}
	if res.Header.PayloadLen != len(payload) {
		t.Errorf("header payload len = %d", res.Header.PayloadLen)
	}
}

func TestModulateDemodulateWithFrequencyBias(t *testing.T) {
	// A realistic RN2483 bias (−22.8 kHz ≈ −26 ppm) must not break
	// demodulation at 4x oversampling... the receiver aggregates neighbor
	// bins. Use a smaller residual bias as seen after gateway AFC.
	const rate = 500e3
	payload := []byte("sensor#7 t=23.4C")
	f := Frame{Params: DefaultParams(7), Payload: payload}
	iq, err := f.Modulate(Impairments{FrequencyBias: 300}, rate)
	if err != nil {
		t.Fatal(err)
	}
	d := &Demodulator{Params: f.Params, SampleRate: rate}
	res, err := d.Demodulate(iq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, payload) || !res.CRCOK {
		t.Fatalf("decode failed under frequency bias: %x crc=%v", res.Payload, res.CRCOK)
	}
}

func TestDemodulateRejectsNoise(t *testing.T) {
	const rate = 500e3
	iq := make([]complex128, 1<<15)
	d := &Demodulator{Params: DefaultParams(7), SampleRate: rate}
	if _, err := d.Demodulate(iq); err == nil {
		t.Error("expected ErrNoPreamble on silence")
	}
	if _, err := d.Demodulate(iq[:10]); err == nil {
		t.Error("expected ErrShortCapture")
	}
}

func TestDemodulateTruncatedFrame(t *testing.T) {
	const rate = 500e3
	f := Frame{Params: DefaultParams(7), Payload: make([]byte, 40)}
	iq, err := f.Modulate(Impairments{}, rate)
	if err != nil {
		t.Fatal(err)
	}
	d := &Demodulator{Params: f.Params, SampleRate: rate}
	if _, err := d.Demodulate(iq[:len(iq)/2]); err == nil {
		t.Error("expected failure on truncated capture")
	}
}

func TestModulateAtPlacesFrameInTime(t *testing.T) {
	const rate = 500e3
	f := Frame{Params: DefaultParams(7), Payload: []byte("x")}
	dur, _ := f.ModulatedDuration()
	buf := make([]complex128, int((dur+0.01)*rate))
	const start = 0.005
	if err := f.ModulateAt(buf, Impairments{}, rate, start); err != nil {
		t.Fatal(err)
	}
	onset := int(start * rate)
	for i := 0; i < onset-1; i++ {
		if buf[i] != 0 {
			t.Fatalf("sample %d nonzero before frame start", i)
		}
	}
	if cmplx.Abs(buf[onset+10]) < 0.5 {
		t.Error("frame energy missing after start")
	}
}

func TestModulatePhaseContinuity(t *testing.T) {
	// Sample-to-sample phase steps should never jump by ~π (which would
	// indicate a discontinuity between chirps).
	const rate = 2e6
	f := Frame{Params: DefaultParams(7), Payload: []byte{0xAA}}
	iq, err := f.Modulate(Impairments{}, rate)
	if err != nil {
		t.Fatal(err)
	}
	maxStep := 0.0
	for i := 1; i < len(iq); i++ {
		if cmplx.Abs(iq[i]) < 0.5 || cmplx.Abs(iq[i-1]) < 0.5 {
			continue
		}
		d := cmplx.Phase(iq[i] * cmplx.Conj(iq[i-1]))
		if math.Abs(d) > maxStep {
			maxStep = math.Abs(d)
		}
	}
	// At 2 Msps the max CSS instantaneous frequency is ±62.5 kHz →
	// |Δφ| ≤ 2π*62.5k/2M ≈ 0.2 rad, plus fold wraps of exactly 2π which
	// vanish modulo 2π. Anything close to π indicates a glitch.
	if maxStep > 1.0 {
		t.Errorf("max phase step = %f rad, waveform discontinuous", maxStep)
	}
}

func TestFleetConstruction(t *testing.T) {
	rng := newTestRand()
	fleet := NewFleet(16, -29, -20, rng)
	if len(fleet) != 16 {
		t.Fatalf("fleet size = %d", len(fleet))
	}
	seen := map[string]bool{}
	for _, tx := range fleet {
		if tx.BiasPPM < -29 || tx.BiasPPM > -20 {
			t.Errorf("bias %f out of range", tx.BiasPPM)
		}
		if seen[tx.ID] {
			t.Errorf("duplicate ID %s", tx.ID)
		}
		seen[tx.ID] = true
	}
}

func TestTransmitterImpairments(t *testing.T) {
	rng := newTestRand()
	p := DefaultParams(7)
	tx := &Transmitter{ID: "n1", BiasPPM: -25, JitterHz: 10}
	imp := tx.NextImpairments(p, rng)
	wantFB := -25e-6 * p.CenterFrequency
	if math.Abs(imp.FrequencyBias-wantFB) > 100 {
		t.Errorf("FB = %f, want ~%f", imp.FrequencyBias, wantFB)
	}
	if imp.InitialPhase < 0 || imp.InitialPhase >= 2*math.Pi {
		t.Errorf("phase = %f out of [0, 2π)", imp.InitialPhase)
	}
	if tx.framesSent != 1 {
		t.Errorf("frames sent = %d", tx.framesSent)
	}
}

func TestTransmitterTemperatureDrift(t *testing.T) {
	rng := newTestRand()
	p := DefaultParams(7)
	tx := &Transmitter{ID: "n1", BiasPPM: -25, JitterHz: 0.001, TempDriftHzPerFrame: 50}
	first := tx.NextImpairments(p, rng).FrequencyBias
	for i := 0; i < 9; i++ {
		tx.NextImpairments(p, rng)
	}
	last := tx.NextImpairments(p, rng).FrequencyBias
	if last-first < 400 {
		t.Errorf("drift over 10 frames = %f Hz, want ~500", last-first)
	}
}

func TestDownlinkFramePreambleOrientation(t *testing.T) {
	// §4.2.2: downlink preambles use down chirps. Dechirping the first
	// chirp with a down reference must concentrate the energy; with an up
	// reference it must not.
	const rate = 500e3
	up := Frame{Params: DefaultParams(7), Payload: []byte{1}}
	down := Frame{Params: DefaultParams(7), Payload: []byte{1}, Downlink: true}
	concentration := func(f Frame, refDown bool) float64 {
		iq, err := f.Modulate(Impairments{}, rate)
		if err != nil {
			t.Fatal(err)
		}
		n := int(f.Params.SamplesPerChirp(rate))
		ref := ChirpSpec{SF: f.Params.SF, Bandwidth: f.Params.Bandwidth, Down: !refDown}
		prod := make([]complex128, n)
		for i := 0; i < n; i++ {
			p := ref.PhaseAt(float64(i) / rate)
			prod[i] = iq[i] * complex(math.Cos(p), math.Sin(p))
		}
		spec := dsp.FFT(prod)
		best := 0.0
		for _, v := range spec {
			if m := cmplx.Abs(v); m > best {
				best = m
			}
		}
		return best / float64(n)
	}
	if c := concentration(up, false); c < 0.8 {
		t.Errorf("uplink preamble up-dechirp concentration = %f", c)
	}
	if c := concentration(down, true); c < 0.8 {
		t.Errorf("downlink preamble down-dechirp concentration = %f", c)
	}
	if c := concentration(down, false); c > 0.3 {
		t.Errorf("downlink preamble should not up-dechirp (= %f)", c)
	}
}

func TestDownlinkFrameSameDuration(t *testing.T) {
	up := Frame{Params: DefaultParams(7), Payload: []byte("abc")}
	down := Frame{Params: DefaultParams(7), Payload: []byte("abc"), Downlink: true}
	du, err := up.ModulatedDuration()
	if err != nil {
		t.Fatal(err)
	}
	dd, err := down.ModulatedDuration()
	if err != nil {
		t.Fatal(err)
	}
	if du != dd {
		t.Errorf("durations differ: %f vs %f", du, dd)
	}
}
