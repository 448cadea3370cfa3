package softlora

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"softlora/internal/radio"
)

// multiFixture builds an n-gateway deployment in the default building with
// one device at the fixed-node position, enrolled at its true bias.
func multiFixture(t *testing.T, n int, seed int64) (*MultiGatewaySimulation, *SimDevice, radio.Position) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := radio.DefaultBuilding()
	// Dechirp onset + dechirp-FFT FB: the building's links sit at −5..13
	// dB SNR, where the AIC detector's timing error (which couples into
	// the FB estimate) would dominate the fingerprint.
	m, err := NewMultiGatewaySimulation(b, n, Config{Rand: rng, Onset: OnsetDechirp, FB: FBDechirpFFT})
	if err != nil {
		t.Fatal(err)
	}
	dev := NewSimDevice("node-1", -23, 40, 14, 0, 0)
	m.Server.Enroll(dev.ID, dev.Transmitter.BiasHz(m.Sites[0].Gateway.Params()), 10)
	return m, dev, b.FixedNode()
}

func TestMultiGatewayPlacement(t *testing.T) {
	b := radio.DefaultBuilding()
	rng := rand.New(rand.NewSource(7))
	m, err := NewMultiGatewaySimulation(b, 3, Config{Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sites) != 3 {
		t.Fatalf("sites = %d", len(m.Sites))
	}
	// Gateways sit on the top floor, spread end to end.
	for i, s := range m.Sites {
		if s.Position.Floor != b.Floors {
			t.Errorf("site %d on floor %d", i, s.Position.Floor)
		}
	}
	if m.Sites[0].Position.X >= m.Sites[2].Position.X {
		t.Error("gateways not spread along the building")
	}
	// All sites share one server.
	for i, s := range m.Sites {
		if s.Gateway.NetworkServer() != m.Server {
			t.Errorf("site %d has a private server", i)
		}
	}
	if _, err := NewMultiGatewaySimulation(b, 0, Config{Rand: rng}); err == nil {
		t.Error("0 gateways accepted")
	}
}

func TestMultiGatewayGenuineUplinkFusesAllReceivers(t *testing.T) {
	m, dev, pos := multiFixture(t, 2, 200)
	dev.Record(9, []byte{1})
	report, records, err := m.Uplink(dev, pos, 10)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictGenuine || !report.Accepted {
		t.Errorf("verdict = %s accepted=%v", report.Verdict, report.Accepted)
	}
	if len(report.Observations) != 2 {
		t.Fatalf("observations = %d, want both gateways", len(report.Observations))
	}
	if report.Frame.Receivers != 2 {
		t.Errorf("fused receivers = %d", report.Frame.Receivers)
	}
	// One verdict for the frame despite two receivers.
	st := m.Server.Stats()
	if st.FramesChecked != 1 || st.DuplicatesSuppressed != 1 {
		t.Errorf("stats = %+v, want 1 frame / 1 suppressed duplicate", st)
	}
	// Fused bias near the device's true bias.
	want := dev.Transmitter.BiasHz(m.Sites[0].Gateway.Params())
	if math.Abs(report.Frame.FBHz-want) > 400 {
		t.Errorf("fused FB = %.0f, want ≈ %.0f", report.Frame.FBHz, want)
	}
	// Timestamp reconstructed from the elected receiver's arrival.
	if len(records) != 1 || len(report.Timestamps) != 1 {
		t.Fatalf("records/timestamps = %d/%d", len(records), len(report.Timestamps))
	}
	if math.Abs(report.Timestamps[0]-9) > 0.01 {
		t.Errorf("timestamp = %f, want ≈ 9", report.Timestamps[0])
	}
}

func TestMultiGatewayReplayFlaggedExactlyOnce(t *testing.T) {
	m, dev, pos := multiFixture(t, 2, 202)
	p := m.Sites[0].Gateway.Params()

	// A genuine frame first.
	dev.Record(9, nil)
	report, _, err := m.Uplink(dev, pos, 10)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictGenuine {
		t.Fatalf("genuine frame: verdict = %s", report.Verdict)
	}
	recBefore, _ := m.Server.Record(dev.ID)

	// The replayer re-emits the frame with its own oscillator's extra
	// bias (paper Fig. 13: ≥543 Hz); both gateways hear the replay.
	replayer := NewSimDevice(dev.ID, -23+p.PPM(-620), 40, 14, 0, 0)
	replayer.Record(39, nil)
	report, _, err = m.Uplink(replayer, pos, 40)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictReplay || report.Accepted {
		t.Fatalf("replayed frame: verdict = %s accepted=%v (FB %.0f)",
			report.Verdict, report.Accepted, report.Frame.FBHz)
	}
	if report.Timestamps != nil {
		t.Error("replayed frame must not produce timestamps")
	}
	if len(report.Observations) != 2 {
		t.Fatalf("observations = %d, want the replay heard twice", len(report.Observations))
	}

	// Flagged exactly once: two frames checked in total (genuine +
	// replay), two duplicates suppressed (one per frame), and the replay
	// did not touch the learned record.
	st := m.Server.Stats()
	if st.FramesChecked != 2 {
		t.Errorf("frames checked = %d, want 2 (one verdict per frame)", st.FramesChecked)
	}
	if st.Observations != 4 || st.DuplicatesSuppressed != 2 {
		t.Errorf("stats = %+v", st)
	}
	// The replay must not update the learned bias state. LastSeen is the
	// one exception: a record under active attack is deliberately kept
	// alive (evicting it would let the replayer re-enroll as the device),
	// so the observation stamp advances while Mean/Dev/Min/Max/Count
	// stay frozen.
	recAfter, _ := m.Server.Record(dev.ID)
	if recAfter.LastSeen <= recBefore.LastSeen {
		t.Error("replayed frame did not advance the record's LastSeen stamp")
	}
	recAfter.LastSeen = recBefore.LastSeen
	if recBefore != recAfter {
		t.Error("replayed frame updated the shared database")
	}
}

func TestMultiGatewayDeterministic(t *testing.T) {
	run := func() (float64, []byte) {
		m, dev, pos := multiFixture(t, 3, 202)
		var fb float64
		for i := 0; i < 3; i++ {
			dev.Record(float64(10*i), nil)
			report, _, err := m.Uplink(dev, pos, float64(10*i)+5)
			if err != nil {
				t.Fatal(err)
			}
			fb = report.Frame.FBHz
		}
		var buf bytes.Buffer
		if err := m.Server.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return fb, buf.Bytes()
	}
	fb1, db1 := run()
	fb2, db2 := run()
	if fb1 != fb2 {
		t.Errorf("fused FB differs across identical runs: %f vs %f", fb1, fb2)
	}
	if !bytes.Equal(db1, db2) {
		t.Error("database bytes differ across identical runs")
	}
}

func TestMultiGatewayFusionTighterThanWorstReceiver(t *testing.T) {
	m, dev, pos := multiFixture(t, 3, 204)
	dev.Record(9, nil)
	report, _, err := m.Uplink(dev, pos, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Observations) < 2 {
		t.Skipf("only %d receivers locked on", len(report.Observations))
	}
	minJ := math.Inf(1)
	for _, o := range report.Observations {
		if o.JitterHz < minJ {
			minJ = o.JitterHz
		}
	}
	if report.Frame.JitterHz > minJ {
		t.Errorf("fused jitter %.1f Hz worse than best receiver %.1f Hz",
			report.Frame.JitterHz, minJ)
	}
}
