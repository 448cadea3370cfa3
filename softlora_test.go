package softlora

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"softlora/internal/attack"
	"softlora/internal/chip"
	"softlora/internal/lora"
	"softlora/internal/radio"
	"softlora/internal/sdr"
	"softlora/internal/timestamp"
)

func testGateway(t *testing.T, rng *rand.Rand) *Gateway {
	t.Helper()
	gw, err := NewGateway(Config{Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

func TestNewGatewayValidation(t *testing.T) {
	if _, err := NewGateway(Config{}); !errors.Is(err, ErrNilRand) {
		t.Errorf("err = %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := NewGateway(Config{Rand: rng, Onset: "bogus"}); !errors.Is(err, ErrBadMethod) {
		t.Errorf("err = %v", err)
	}
	if _, err := NewGateway(Config{Rand: rng, FB: "bogus"}); !errors.Is(err, ErrBadMethod) {
		t.Errorf("err = %v", err)
	}
	bad := lora.DefaultParams(7)
	bad.SF = 99
	if _, err := NewGateway(Config{Rand: rng, Params: bad}); err == nil {
		t.Error("expected error for invalid params")
	}
}

func TestGatewayDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gw := testGateway(t, rng)
	if gw.Params().SF != 7 {
		t.Errorf("default SF = %d", gw.Params().SF)
	}
}

func TestEndToEndGenuineUplink(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	gw := testGateway(t, rng)
	sim := &Simulation{Gateway: gw, NoiseFloordBm: -100, Rand: rng}
	dev := NewSimDevice("node-1", -25, 40, 14, 80, 150)
	gw.EnrollDevice("node-1", dev.Transmitter.BiasHz(gw.Params()))

	// Sensor data at t=50 and t=80; uplink at t=100.
	dev.Record(50, []byte{0xA1})
	dev.Record(80, []byte{0xA2})
	report, records, err := sim.Uplink(dev, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("records = %d", len(records))
	}
	if report.Verdict != VerdictGenuine {
		t.Errorf("verdict = %s", report.Verdict)
	}
	if !report.Accepted {
		t.Error("genuine frame rejected")
	}
	// Arrival time ≈ 100 (µs-level propagation + onset error).
	if math.Abs(report.ArrivalTime-100) > 1e-4 {
		t.Errorf("arrival = %f, want ~100", report.ArrivalTime)
	}
	// Reconstructed timestamps within the sync-free error budget
	// (drift over ≤50 s at 40 ppm = 2 ms, plus quantization).
	if math.Abs(report.Timestamps[0]-50) > 0.005 {
		t.Errorf("timestamp[0] = %f, want ~50", report.Timestamps[0])
	}
	if math.Abs(report.Timestamps[1]-80) > 0.005 {
		t.Errorf("timestamp[1] = %f, want ~80", report.Timestamps[1])
	}
	// Estimated bias ≈ −25 ppm.
	if math.Abs(report.FrequencyBiasPPM+25) > 1 {
		t.Errorf("bias = %f ppm, want ~-25", report.FrequencyBiasPPM)
	}
}

func TestEndToEndReplayDetected(t *testing.T) {
	// Full paper pipeline: jam-and-replay in the building, SoftLoRa
	// detects the replay and refuses to timestamp the data.
	rng := rand.New(rand.NewSource(131))
	gw := testGateway(t, rng)
	p := gw.Params()

	b := radio.DefaultBuilding()
	device := b.FixedNode()
	gwPos, _ := b.Column("C3", 6)
	devGwLoss := b.LossdB(device, gwPos)

	scn := &attack.Scenario{
		Params:     p,
		SampleRate: sdr.DefaultSampleRate,
		Rand:       rng,
		Gateway:    chip.NewReceiver(p),

		DeviceTxPowerdBm:    14,
		DeviceGatewayLossdB: devGwLoss,

		JammerTxPowerdBm:    14.1,
		JammerGatewayLossdB: 40,
		JamOnsetAfter:       attack.PickJamOnset(chip.NewReceiver(p), 20, 0.5),

		DeviceEaveLossdB:      40,
		JammerEaveLossdB:      devGwLoss,
		EaveNoiseFloordBm:     b.NoiseFloordBm,
		ReplayerGatewayLossdB: 40,
		Replayer: attack.Replayer{
			FrequencyBiasHz: -620,
			TxPowerdBm:      7,
			Delay:           30, // inject a 30 s timestamp error
		},
	}

	const deviceBias = -22e3
	gw.EnrollDevice("node-1", deviceBias)

	frame := lora.Frame{Params: p, Payload: []byte("data-to-delay-12345")}
	res, err := scn.Execute(frame, lora.Impairments{FrequencyBias: deviceBias, InitialPhase: 0.8}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stealthy {
		t.Fatalf("jamming not stealthy: %v", res.JamOutcome)
	}

	// The gateway's SDR captures the REPLAYED emission.
	sim := &Simulation{Gateway: gw, NoiseFloordBm: b.NoiseFloordBm, Rand: rng}
	cap, err := sim.CaptureEmission(res.ReplayEmission)
	if err != nil {
		t.Fatal(err)
	}
	rec := timestamp.FrameRecord{Elapsed: 5000} // datum taken 5 s before TX
	report, err := gw.ProcessUplink(cap, "node-1", []timestamp.FrameRecord{rec})
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictReplay {
		t.Fatalf("verdict = %s, want replay (bias %.0f Hz vs enrolled %.0f)",
			report.Verdict, report.FrequencyBiasHz, deviceBias)
	}
	if report.Accepted || report.Timestamps != nil {
		t.Error("replayed frame must not produce timestamps")
	}
}

// TestProcessUplinkWithoutClaimedIDIsReplay: uplinks claiming no device
// are rejected and enroll nothing, instead of sharing one "" record that
// would enroll and then pass them as genuine.
func TestProcessUplinkWithoutClaimedIDIsReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(135))
	gw := testGateway(t, rng)
	sim := &Simulation{Gateway: gw, NoiseFloordBm: -100, Rand: rng}
	dev := NewSimDevice("node-1", -25, 40, 14, 80, 150)
	for i := 0; i < 5; i++ {
		dev.Record(float64(10*i), []byte{byte(i)})
		capt, records, err := sim.RenderUplink(dev, float64(10*i+5))
		if err != nil {
			t.Fatal(err)
		}
		report, err := gw.ProcessUplink(capt, "", records)
		if err != nil {
			t.Fatal(err)
		}
		if report.Verdict != VerdictReplay || report.Accepted || report.Timestamps != nil {
			t.Fatalf("uplink %d without claimed ID: verdict %s, accepted %v, timestamps %v; want a rejected replay",
				i, report.Verdict, report.Accepted, report.Timestamps)
		}
	}
	if _, frames, ok := gw.DeviceBias(""); ok {
		t.Fatalf("uplinks without claimed ID enrolled a record of %d frames", frames)
	}
}

func TestNaiveGatewayFooledSoftLoRaNot(t *testing.T) {
	// The contrast the paper draws: arrival-time timestamping alone is off
	// by τ; the SoftLoRa verdict prevents using it.
	rng := rand.New(rand.NewSource(132))
	gw := testGateway(t, rng)
	gw.EnrollDevice("node-1", -22e3)

	const t0, tau = 10.0, 60.0
	p := gw.Params()
	spec := lora.Frame{Params: p, Payload: []byte("x")}
	replayer := attack.Replayer{FrequencyBiasHz: -700, Delay: tau}
	wf, err := spec.Modulate(lora.Impairments{FrequencyBias: -22e3}, sdr.DefaultSampleRate)
	if err != nil {
		t.Fatal(err)
	}
	replayed := replayer.Reemit(wf, sdr.DefaultSampleRate)
	em := radio.Emission{
		Waveform:   replayed,
		StartTime:  t0 + tau,
		TxPowerdBm: 0,
		PathLossdB: 40,
		Distance:   1,
	}
	sim := &Simulation{Gateway: gw, NoiseFloordBm: -110, Rand: rng}
	cap, err := sim.CaptureEmission(em)
	if err != nil {
		t.Fatal(err)
	}
	rec := timestamp.FrameRecord{Elapsed: 0}
	report, err := gw.ProcessUplink(cap, "node-1", []timestamp.FrameRecord{rec})
	if err != nil {
		t.Fatal(err)
	}
	// A naive gateway would stamp the datum at arrival ≈ t0+tau: wrong by τ.
	naive := report.ArrivalTime
	if math.Abs(naive-(t0+tau)) > 0.01 {
		t.Errorf("naive arrival = %f, want ~%f", naive, t0+tau)
	}
	// SoftLoRa flags it instead.
	if report.Verdict != VerdictReplay {
		t.Errorf("verdict = %s, want replay", report.Verdict)
	}
}

func TestBiasDatabasePersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	gw := testGateway(t, rng)
	gw.EnrollDevice("node-1", -21e3)
	var buf bytes.Buffer
	if err := gw.SaveBiasDatabase(&buf); err != nil {
		t.Fatal(err)
	}
	gw2 := testGateway(t, rng)
	if err := gw2.LoadBiasDatabase(&buf); err != nil {
		t.Fatal(err)
	}
	mean, frames, ok := gw2.DeviceBias("node-1")
	if !ok || mean != -21e3 || frames == 0 {
		t.Errorf("bias = %f frames = %d ok = %v", mean, frames, ok)
	}
	if _, _, ok := gw2.DeviceBias("missing"); ok {
		t.Error("missing device reported present")
	}
}

func TestProcessUplinkCaptureTooShort(t *testing.T) {
	rng := rand.New(rand.NewSource(134))
	gw := testGateway(t, rng)
	// A capture with a frame onset too close to the end: no second chirp.
	p := gw.Params()
	spec := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth}
	n := int(p.SamplesPerChirp(sdr.DefaultSampleRate))
	iq := make([]complex128, 2*n)
	spec.AddTo(iq, sdr.DefaultSampleRate, float64(n)/sdr.DefaultSampleRate)
	// Light noise so detection works.
	for i := range iq {
		iq[i] += complex(rng.NormFloat64()*0.01, rng.NormFloat64()*0.01)
	}
	cap := &radio.Capture{IQ: iq, Rate: sdr.DefaultSampleRate}
	if _, err := gw.ProcessUplink(cap, "n", nil); !errors.Is(err, ErrCaptureShort) {
		t.Errorf("err = %v, want ErrCaptureShort", err)
	}
}

// TestSingleCaptureNilCapture: every single-capture entry point refuses a
// nil capture with ErrNilCapture, as ProcessBatch does, instead of
// dereferencing it.
func TestSingleCaptureNilCapture(t *testing.T) {
	gw := testGateway(t, rand.New(rand.NewSource(5)))
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"ProcessUplink", func() error { _, err := gw.ProcessUplink(nil, "n", nil); return err }},
		{"Observe", func() error { _, err := gw.Observe(nil, "n", "f"); return err }},
		{"ObserveIQ", func() error { _, err := gw.ObserveIQ(nil, "n", "f"); return err }},
	} {
		if err := c.call(); !errors.Is(err, ErrNilCapture) {
			t.Errorf("%s(nil): err = %v, want ErrNilCapture", c.name, err)
		}
	}
}

// TestSampleRateChecked: a rate the PHY stage cannot use is refused with
// ErrBadSampleRate — by NewGateway (where 0 selects the default), and by
// the single-capture calls on a capture carrying it — instead of
// overflowing a sample count into a makeslice or slice-bounds panic.
func TestSampleRateChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	gw := testGateway(t, rng)
	iq := make([]complex128, 8192)
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1), 1e300} {
		_, err := NewGateway(Config{Rand: rng, SampleRate: rate})
		if rate == 0 {
			if err != nil {
				t.Errorf("NewGateway, rate 0 (the default): %v", err)
			}
		} else if !errors.Is(err, ErrBadSampleRate) {
			t.Errorf("NewGateway, rate %g: err = %v, want ErrBadSampleRate", rate, err)
		}
		if _, err := gw.ObserveIQ(&sdr.Capture{IQ: iq, Rate: rate}, "n", "f"); !errors.Is(err, ErrBadSampleRate) {
			t.Errorf("ObserveIQ, rate %g: err = %v, want ErrBadSampleRate", rate, err)
		}
		if _, err := gw.ProcessUplink(&radio.Capture{IQ: iq, Rate: rate}, "n", nil); !errors.Is(err, ErrBadSampleRate) {
			t.Errorf("ProcessUplink, rate %g: err = %v, want ErrBadSampleRate", rate, err)
		}
	}
}

func TestSimulationRequiresRand(t *testing.T) {
	gw := testGateway(t, rand.New(rand.NewSource(3)))
	sim := &Simulation{Gateway: gw}
	dev := NewSimDevice("d", -20, 40, 14, 80, 10)
	if _, _, err := sim.Uplink(dev, 0); !errors.Is(err, ErrNilRand) {
		t.Errorf("err = %v", err)
	}
	if _, err := sim.CaptureEmission(radio.Emission{}); !errors.Is(err, ErrNilRand) {
		t.Errorf("err = %v", err)
	}
}

func TestGatewayWithLeastSquaresEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(135))
	gw, err := NewGateway(Config{Rand: rng, FB: FBLeastSquares})
	if err != nil {
		t.Fatal(err)
	}
	sim := &Simulation{Gateway: gw, NoiseFloordBm: -100, Rand: rng}
	dev := NewSimDevice("n", -22, 40, 14, 80, 100)
	gw.EnrollDevice("n", dev.Transmitter.BiasHz(gw.Params()))
	dev.Record(99, nil)
	report, _, err := sim.Uplink(dev, 100)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictGenuine {
		t.Errorf("verdict = %s (bias %.0f Hz)", report.Verdict, report.FrequencyBiasHz)
	}
}

func TestGatewayWithDechirpFFTEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(136))
	gw, err := NewGateway(Config{Rand: rng, FB: FBDechirpFFT})
	if err != nil {
		t.Fatal(err)
	}
	sim := &Simulation{Gateway: gw, NoiseFloordBm: -100, Rand: rng}
	dev := NewSimDevice("n", -22, 40, 14, 80, 100)
	gw.EnrollDevice("n", dev.Transmitter.BiasHz(gw.Params()))
	dev.Record(99, nil)
	report, _, err := sim.Uplink(dev, 100)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictGenuine {
		t.Errorf("verdict = %s (bias %.0f Hz)", report.Verdict, report.FrequencyBiasHz)
	}
}

func TestGatewayEnvelopeOnset(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	gw, err := NewGateway(Config{Rand: rng, Onset: OnsetEnvelope})
	if err != nil {
		t.Fatal(err)
	}
	sim := &Simulation{Gateway: gw, NoiseFloordBm: -105, Rand: rng}
	dev := NewSimDevice("n", -24, 40, 14, 70, 50)
	gw.EnrollDevice("n", dev.Transmitter.BiasHz(gw.Params()))
	dev.Record(9.5, nil)
	report, _, err := sim.Uplink(dev, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(report.ArrivalTime-10) > 1e-4 {
		t.Errorf("arrival = %f", report.ArrivalTime)
	}
}

func TestSDRBiasDoesNotBreakDetection(t *testing.T) {
	// The gateway's own δRx shifts every estimate equally, so replay
	// detection (which compares against learned history from the SAME
	// receiver) is unaffected — the paper's point that δTx need not be
	// isolated (§7.1).
	rng := rand.New(rand.NewSource(138))
	recv := &sdr.Receiver{FrequencyBias: 5e3, ADCBits: 8, Rand: rng}
	gw, err := NewGateway(Config{Rand: rng, SDR: recv})
	if err != nil {
		t.Fatal(err)
	}
	sim := &Simulation{Gateway: gw, NoiseFloordBm: -100, Rand: rng}
	dev := NewSimDevice("n", -22, 40, 14, 80, 100)
	// Enroll via observed frames (learned through the biased receiver).
	for i := 0; i < 4; i++ {
		dev.Record(float64(i), nil)
		if _, _, err := sim.Uplink(dev, float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	dev.Record(10, nil)
	report, _, err := sim.Uplink(dev, 10.5)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictGenuine {
		t.Errorf("verdict = %s", report.Verdict)
	}
	// δ includes −δRx: estimated ≈ −22 ppm*869.75e6 − 5 kHz.
	want := -22e-6*869.75e6 - 5e3
	if math.Abs(report.FrequencyBiasHz-want) > 500 {
		t.Errorf("bias = %f, want ~%f", report.FrequencyBiasHz, want)
	}
}

func TestGatewayWithUpDownEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	gw, err := NewGateway(Config{Rand: rng, FB: FBUpDown})
	if err != nil {
		t.Fatal(err)
	}
	if gw.CaptureChirps() <= 4 {
		t.Errorf("CaptureChirps = %d, up/down needs the SFD", gw.CaptureChirps())
	}
	sim := &Simulation{Gateway: gw, NoiseFloordBm: -100, Rand: rng}
	dev := NewSimDevice("n", -22, 40, 14, 80, 100)
	gw.EnrollDevice("n", dev.Transmitter.BiasHz(gw.Params()))
	dev.Record(99, nil)
	report, _, err := sim.Uplink(dev, 100)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictGenuine {
		t.Errorf("verdict = %s (bias %.0f Hz)", report.Verdict, report.FrequencyBiasHz)
	}
	// The joint estimator must land very close to the device's true bias,
	// unaffected by onset error.
	want := dev.Transmitter.BiasHz(gw.Params())
	if math.Abs(report.FrequencyBiasHz-want) > 150 {
		t.Errorf("bias = %.0f, want ~%.0f", report.FrequencyBiasHz, want)
	}
	if math.Abs(report.ArrivalTime-100) > 5e-6 {
		t.Errorf("refined arrival = %.9f, want ~100 within µs", report.ArrivalTime)
	}
}

func TestGatewayWithDechirpOnset(t *testing.T) {
	rng := rand.New(rand.NewSource(145))
	gw, err := NewGateway(Config{Rand: rng, Onset: OnsetDechirp})
	if err != nil {
		t.Fatal(err)
	}
	sim := &Simulation{Gateway: gw, NoiseFloordBm: -100, Rand: rng}
	dev := NewSimDevice("n", -23, 40, 14, 80, 100)
	gw.EnrollDevice("n", dev.Transmitter.BiasHz(gw.Params()))
	dev.Record(9.5, nil)
	report, _, err := sim.Uplink(dev, 10)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictGenuine {
		t.Errorf("verdict = %s", report.Verdict)
	}
	if math.Abs(report.ArrivalTime-10) > 1e-5 {
		t.Errorf("arrival = %f", report.ArrivalTime)
	}
}
