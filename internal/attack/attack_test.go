package attack

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"softlora/internal/chip"
	"softlora/internal/core"
	"softlora/internal/lora"
	"softlora/internal/radio"
)

const testRate = 500e3

// buildingScenario reproduces §8.1.1: device and eavesdropper in section A
// 3rd floor, gateway and replayer in section C3 6th floor, SF8.
func buildingScenario(rng *rand.Rand) (*Scenario, *radio.Building) {
	b := radio.DefaultBuilding()
	p := lora.DefaultParams(8)
	p.LowDataRateOptimize = false
	device := b.FixedNode() // A1, floor 3
	gwPos, _ := b.Column("C3", 6)
	devGwLoss := b.LossdB(device, gwPos)
	s := &Scenario{
		Params:     p,
		SampleRate: testRate,
		Rand:       rng,
		Gateway:    chip.NewReceiver(p),

		DeviceTxPowerdBm:    14,
		DeviceGatewayLossdB: devGwLoss,

		JammerTxPowerdBm:    14.1, // paper §8.1.1
		JammerGatewayLossdB: 40,   // jammer is next to the gateway
		JamOnsetAfter:       0,    // set below

		DeviceEaveLossdB:  40,        // eavesdropper next to the device
		JammerEaveLossdB:  devGwLoss, // jamming crosses the whole building
		EaveNoiseFloordBm: b.NoiseFloordBm,

		ReplayerGatewayLossdB: 40,
		Replayer: Replayer{
			FrequencyBiasHz: -620,
			TxPowerdBm:      7, // the stealthy bound from §8.1.1
			Delay:           2.0,
			JitterHz:        10,
			Rand:            rng,
		},
	}
	s.JamOnsetAfter = PickJamOnset(s.Gateway, 20, 0.5)
	return s, b
}

func testFrame(p lora.Params) lora.Frame {
	return lora.Frame{Params: p, Payload: []byte("sensor reading #042!")}
}

func TestExecuteRequiresConfig(t *testing.T) {
	s := &Scenario{}
	if _, err := s.Execute(lora.Frame{}, lora.Impairments{}, 0); err != ErrNilRand {
		t.Errorf("err = %v, want ErrNilRand", err)
	}
	s.Rand = rand.New(rand.NewSource(1))
	if _, err := s.Execute(lora.Frame{}, lora.Impairments{}, 0); err != ErrNilGateway {
		t.Errorf("err = %v, want ErrNilGateway", err)
	}
}

func TestFullAttackInBuilding(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	s, _ := buildingScenario(rng)
	frame := testFrame(s.Params)
	imp := lora.Impairments{FrequencyBias: -22e3, InitialPhase: 1.0}
	res, err := s.Execute(frame, imp, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// §8.1.1's full claims:
	if !res.Stealthy {
		t.Errorf("jamming outcome = %v, want silent-drop", res.JamOutcome)
	}
	if !res.RecordingUsable {
		t.Errorf("eavesdropper SINR = %.1f dB: recording unusable", res.EavesdropSINRdB)
	}
	if !res.RSSIInconspicuous {
		t.Errorf("replay RSSI %.1f vs legit %.1f dBm: conspicuous", res.ReplayRSSIdBm, res.LegitRSSIdBm)
	}
	if res.InjectedDelay != 2.0 {
		t.Errorf("injected delay = %f", res.InjectedDelay)
	}
	if res.ReplayEmission.Waveform == nil {
		t.Fatal("no replay waveform")
	}
	if res.ReplayEmission.StartTime != 0.01+2.0 {
		t.Errorf("replay start = %f", res.ReplayEmission.StartTime)
	}
}

func TestJammingWeakAtEavesdropper(t *testing.T) {
	// The jamming signal crosses the whole building before reaching the
	// eavesdropper, so the recording stays clean (the paper's power-
	// control waiver).
	rng := rand.New(rand.NewSource(121))
	s, _ := buildingScenario(rng)
	res, err := s.Execute(testFrame(s.Params), lora.Impairments{FrequencyBias: -20e3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.EavesdropSINRdB < 10 {
		t.Errorf("eavesdrop SINR = %.1f dB, want strong", res.EavesdropSINRdB)
	}
}

func TestReplayCarriesExtraFrequencyBias(t *testing.T) {
	// The SoftLoRa-visible artifact: FB(replayed) − FB(original) ≈ the
	// replayer's oscillator bias (Fig. 13).
	rng := rand.New(rand.NewSource(122))
	s, _ := buildingScenario(rng)
	s.Replayer.JitterHz = 1e-9 // isolate the deterministic shift
	const deviceBias = -21.5e3
	res, err := s.Execute(testFrame(s.Params), lora.Impairments{FrequencyBias: deviceBias, InitialPhase: 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	est := &core.LinearRegressionEstimator{Params: s.Params}
	// Original: estimate from the eavesdropper's recording (first chirp
	// starts at t0 = capture start).
	n := int(s.Params.SamplesPerChirp(testRate))
	orig, err := est.EstimateFB(res.Recording.IQ[:n], testRate)
	if err != nil {
		t.Fatal(err)
	}
	// Replayed: estimate from the replay waveform.
	rep, err := est.EstimateFB(res.ReplayEmission.Waveform[:n], testRate)
	if err != nil {
		t.Fatal(err)
	}
	shift := rep.DeltaHz - orig.DeltaHz
	if math.Abs(shift-(-620)) > 60 {
		t.Errorf("replay-induced FB shift = %.0f Hz, want ≈ −620", shift)
	}
	// The same shift must be visible through the gateway's fast dechirp-FFT
	// path (the estimator the batch pipeline runs): the replay fingerprint
	// cannot depend on which estimator tier the gateway picked.
	fft := &core.DechirpFFTEstimator{Params: s.Params}
	origFFT, err := fft.EstimateFB(res.Recording.IQ[:n], testRate)
	if err != nil {
		t.Fatal(err)
	}
	repFFT, err := fft.EstimateFB(res.ReplayEmission.Waveform[:n], testRate)
	if err != nil {
		t.Fatal(err)
	}
	if fftShift := repFFT.DeltaHz - origFFT.DeltaHz; math.Abs(fftShift-(-620)) > 60 {
		t.Errorf("dechirp-FFT replay-induced shift = %.0f Hz, want ≈ −620", fftShift)
	}
}

func TestReplayerReemitShiftsFrequency(t *testing.T) {
	r := &Replayer{FrequencyBiasHz: -500}
	const rate = 100e3
	// A pure tone at 1 kHz shifts to 0.5 kHz.
	n := 4096
	wf := make([]complex128, n)
	for i := range wf {
		wf[i] = cmplx.Exp(complex(0, 2*math.Pi*1000*float64(i)/rate))
	}
	out := r.Reemit(wf, rate)
	var sum float64
	for i := 1; i < len(out); i++ {
		sum += cmplx.Phase(out[i] * cmplx.Conj(out[i-1]))
	}
	got := sum / float64(len(out)-1) * rate / (2 * math.Pi)
	if math.Abs(got-500) > 5 {
		t.Errorf("replayed tone at %.1f Hz, want 500", got)
	}
}

func TestReplayerJitterVariesAcrossReplays(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	r := &Replayer{FrequencyBiasHz: -620, JitterHz: 30, Rand: rng}
	wf := make([]complex128, 256)
	for i := range wf {
		wf[i] = 1
	}
	measure := func(out []complex128) float64 {
		var sum float64
		for i := 1; i < len(out); i++ {
			sum += cmplx.Phase(out[i] * cmplx.Conj(out[i-1]))
		}
		return sum / float64(len(out)-1)
	}
	a := measure(r.Reemit(wf, 100e3))
	b := measure(r.Reemit(wf, 100e3))
	if a == b {
		t.Error("jitter should vary the replay bias")
	}
}

func TestPickJamOnsetInsideWindow(t *testing.T) {
	p := lora.DefaultParams(7)
	r := chip.NewReceiver(p)
	w1, w2 := r.EffectiveAttackWindow(20)
	for _, frac := range []float64{0, 0.5, 1} {
		onset := PickJamOnset(r, 20, frac)
		if onset <= w1 || onset >= w2 {
			t.Errorf("frac %.1f: onset %f outside (%f, %f)", frac, onset, w1, w2)
		}
	}
	// Out-of-range fracs clamp.
	if PickJamOnset(r, 20, -5) <= w1 || PickJamOnset(r, 20, 5) >= w2 {
		t.Error("clamping failed")
	}
}

func TestAttackOutsideWindowIsNotStealthy(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	s, _ := buildingScenario(rng)
	// Jam immediately: the chip re-locks to the jammer (captured, not
	// stealthy — the gateway sees a frame, just not the right one).
	s.JamOnsetAfter = 0.001
	res, err := s.Execute(testFrame(s.Params), lora.Impairments{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stealthy {
		t.Error("early jamming should not be classified stealthy")
	}
	if res.JamOutcome != chip.OutcomeJammerCaptured {
		t.Errorf("outcome = %v", res.JamOutcome)
	}
	// Jam after the frame: both frames received.
	s2, _ := buildingScenario(rng)
	s2.JamOnsetAfter = 10
	res2, err := s2.Execute(testFrame(s.Params), lora.Impairments{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.JamOutcome != chip.OutcomeBothReceived {
		t.Errorf("late jam outcome = %v", res2.JamOutcome)
	}
}

func TestHighPowerReplayIsConspicuous(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	s, _ := buildingScenario(rng)
	s.Replayer.TxPowerdBm = 20 // way above the device's weak RSSI
	res, err := s.Execute(testFrame(s.Params), lora.Impairments{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RSSIInconspicuous {
		t.Error("20 dBm replay next to the gateway should be conspicuous")
	}
}
