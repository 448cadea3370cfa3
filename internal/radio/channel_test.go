package radio

import (
	"math"
	"math/rand"
	"testing"

	"softlora/internal/lora"
)

func testChannel(noisedBm float64) *Channel {
	return &Channel{
		SampleRate:    500e3,
		NoiseFloordBm: noisedBm,
		Rand:          rand.New(rand.NewSource(60)),
	}
}

func TestReceiveSilence(t *testing.T) {
	ch := testChannel(-30)
	cap, err := ch.Receive(nil, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(cap.IQ) != int(0.01*500e3) {
		t.Fatalf("len = %d", len(cap.IQ))
	}
	// Noise power should match the floor.
	var p float64
	for _, v := range cap.IQ {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= float64(len(cap.IQ))
	if math.Abs(PowerTodBm(p)+30) > 0.5 {
		t.Errorf("noise power = %f dBm, want -30", PowerTodBm(p))
	}
}

func TestReceiveSingleEmission(t *testing.T) {
	ch := testChannel(-120)
	f := lora.Frame{Params: lora.DefaultParams(7), Payload: []byte("ping")}
	em := Emission{
		Frame:      f,
		StartTime:  0.002,
		TxPowerdBm: 14,
		PathLossdB: 60,
		Distance:   100,
	}
	cap, err := ch.Receive([]Emission{em}, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Received power should be 14-60 = −46 dBm during the frame.
	onset := int((0.002 + PropagationDelay(100)) * cap.Rate)
	var p float64
	const span = 1000
	for _, v := range cap.IQ[onset+10 : onset+10+span] {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= span
	if math.Abs(PowerTodBm(p)+46) > 0.5 {
		t.Errorf("rx power = %f dBm, want -46", PowerTodBm(p))
	}
	// Before the frame there should be (almost) nothing.
	var pre float64
	for _, v := range cap.IQ[:onset-10] {
		pre += real(v)*real(v) + imag(v)*imag(v)
	}
	pre /= float64(onset - 10)
	if PowerTodBm(pre) > -100 {
		t.Errorf("pre-frame power = %f dBm, want below -100", PowerTodBm(pre))
	}
}

func TestReceiveDecodableFrame(t *testing.T) {
	ch := testChannel(-120)
	params := lora.DefaultParams(7)
	f := lora.Frame{Params: params, Payload: []byte("end-to-end")}
	em := Emission{
		Frame:       f,
		Impairments: lora.Impairments{FrequencyBias: 200},
		StartTime:   0.001,
		TxPowerdBm:  14,
		PathLossdB:  40,
		Distance:    50,
	}
	dur, err := f.ModulatedDuration()
	if err != nil {
		t.Fatal(err)
	}
	cap, err := ch.Receive([]Emission{em}, 0, dur+0.005)
	if err != nil {
		t.Fatal(err)
	}
	d := &lora.Demodulator{Params: params, SampleRate: cap.Rate}
	res, err := d.Demodulate(cap.IQ)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Payload) != "end-to-end" || !res.CRCOK {
		t.Fatalf("decode failed: %q crc=%v", res.Payload, res.CRCOK)
	}
	// The frame-start estimate should match the channel timing within a
	// chirp.
	wantStart := cap.SampleAt(0.001 + PropagationDelay(50))
	n := params.SamplesPerChirp(cap.Rate)
	if math.Abs(float64(res.Sync.FrameStart)-wantStart) > n {
		t.Errorf("frame start = %d, want ~%f", res.Sync.FrameStart, wantStart)
	}
}

func TestReceiveCollision(t *testing.T) {
	// Two overlapping emissions must superpose: total power ≈ sum.
	ch := testChannel(-120)
	f := lora.Frame{Params: lora.DefaultParams(7), Payload: []byte("aaaa")}
	ems := []Emission{
		{Frame: f, StartTime: 0.001, TxPowerdBm: 0, PathLossdB: 0, Distance: 1},
		{Frame: f, Impairments: lora.Impairments{FrequencyBias: 40e3}, StartTime: 0.001, TxPowerdBm: 0, PathLossdB: 0, Distance: 1},
	}
	cap, err := ch.Receive(ems, 0, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	at := int(0.002 * cap.Rate)
	var p float64
	const span = 2000
	for _, v := range cap.IQ[at : at+span] {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= span
	if math.Abs(p-2) > 0.3 {
		t.Errorf("collision power = %f, want ~2", p)
	}
}

func TestReceiveWaveformReplay(t *testing.T) {
	// A recorded waveform emission must reappear at the scheduled time.
	ch := testChannel(-120)
	spec := lora.ChirpSpec{SF: 7, Bandwidth: 125e3}
	wf := spec.Synthesize(500e3)
	em := Emission{
		Waveform:   wf,
		StartTime:  0.003,
		TxPowerdBm: 0,
		PathLossdB: 20,
		Distance:   10,
	}
	cap, err := ch.Receive([]Emission{em}, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	onset := int((0.003 + PropagationDelay(10)) * cap.Rate)
	var pre, post float64
	for _, v := range cap.IQ[:onset-5] {
		pre += real(v)*real(v) + imag(v)*imag(v)
	}
	pre /= float64(onset - 5)
	for _, v := range cap.IQ[onset+5 : onset+105] {
		post += real(v)*real(v) + imag(v)*imag(v)
	}
	post /= 100
	if PowerTodBm(post)-PowerTodBm(pre) < 30 {
		t.Errorf("replayed waveform not visible: pre %f dBm post %f dBm",
			PowerTodBm(pre), PowerTodBm(post))
	}
	if math.Abs(PowerTodBm(post)+20) > 1 {
		t.Errorf("replay power = %f dBm, want -20", PowerTodBm(post))
	}
}

func TestReceiveErrors(t *testing.T) {
	ch := &Channel{SampleRate: 0, Rand: rand.New(rand.NewSource(1))}
	if _, err := ch.Receive(nil, 0, 1); err == nil {
		t.Error("expected error for zero sample rate")
	}
	ch2 := &Channel{SampleRate: 1e6}
	if _, err := ch2.Receive(nil, 0, 1); err == nil {
		t.Error("expected error for nil Rand")
	}
}

func TestCaptureTimeMapping(t *testing.T) {
	c := Capture{Rate: 1e6, Start: 0.5}
	if got := c.SampleAt(0.501); math.Abs(got-1000) > 1e-9 {
		t.Errorf("SampleAt = %f", got)
	}
}

// TestAddScaledWaveformClippedWindow pins the hoisted-bounds placement
// against a per-sample bounds-checked reference, for waveforms overlapping
// the destination start, the destination end, both, and neither.
func TestAddScaledWaveformClippedWindow(t *testing.T) {
	ref := func(dst, wf []complex128, rate, arrival, amp float64) {
		offset := arrival * rate
		base := int(math.Floor(offset))
		frac := offset - float64(base)
		a := complex(amp*(1-frac), 0)
		b := complex(amp*frac, 0)
		for i, v := range wf {
			j := base + i
			if j >= 0 && j < len(dst) {
				dst[j] += v * a
			}
			if j+1 >= 0 && j+1 < len(dst) {
				dst[j+1] += v * b
			}
		}
	}
	const rate = 500e3
	wf := make([]complex128, 64)
	for i := range wf {
		wf[i] = complex(float64(i+1), float64(-i))
	}
	for _, arrival := range []float64{
		-200 / rate,  // entirely before dst
		-32.5 / rate, // straddles dst start
		10.25 / rate, // interior, fractional
		100 / rate,   // straddles dst end (dst len 128)
		500 / rate,   // entirely past dst
		0,            // exact grid alignment (frac == 0)
	} {
		got := make([]complex128, 128)
		want := make([]complex128, 128)
		addScaledWaveform(got, wf, rate, arrival, 0.7)
		ref(want, wf, rate, arrival, 0.7)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("arrival %g: sample %d = %v, want %v", arrival, i, got[i], want[i])
			}
		}
	}
}
