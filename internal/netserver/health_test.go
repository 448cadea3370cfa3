package netserver

import (
	"testing"

	"softlora/internal/core"
)

// healthServer builds a server with the health tracker on a short fuse so
// tests converge quickly, and "n" enrolled at -22000 Hz.
func healthServer(t *testing.T) *NetworkServer {
	t.Helper()
	s := New(Config{Health: HealthConfig{
		Enabled: true, Window: 8, MinSamples: 4, Probation: 4,
	}})
	s.Enroll("n", -22000, 10)
	return s
}

// frame3 is one frame heard by two honest gateways and one with the given
// FB and arrival offsets.
func frame3(i int, badFB, badSkew float64) []PHYObservation {
	at := float64(i)
	return []PHYObservation{
		{GatewayID: "ga", DeviceID: "n", FrameID: frameID(i), UplinkIndex: int64(i),
			FBHz: -22010, JitterHz: 40, ArrivalTime: at},
		{GatewayID: "gb", DeviceID: "n", FrameID: frameID(i), UplinkIndex: int64(i),
			FBHz: -21990, JitterHz: 40, ArrivalTime: at},
		{GatewayID: "gx", DeviceID: "n", FrameID: frameID(i), UplinkIndex: int64(i),
			FBHz: -22000 + badFB, JitterHz: 40, ArrivalTime: at + badSkew},
	}
}

func TestHealthQuarantinesPersistentOutlier(t *testing.T) {
	s := healthServer(t)
	// gx returns gross outliers (a deep-fade link that lost the tone)
	// frame after frame: the fusion gate rejects each copy, and after
	// MinSamples the tracker quarantines the gateway.
	var last FrameVerdict
	for i := 0; i < 8; i++ {
		fv, err := s.CheckFrame(frame3(i, 90000, 0))
		if err != nil {
			t.Fatal(err)
		}
		last = fv
	}
	if got := s.QuarantinedGateways(); len(got) != 1 || got[0] != "gx" {
		t.Fatalf("quarantined = %v, want [gx]", got)
	}
	if last.QuarantinedExcluded != 1 {
		t.Fatalf("last verdict QuarantinedExcluded = %d, want 1", last.QuarantinedExcluded)
	}
	if st := s.Stats(); st.GatewaysQuarantined != 1 {
		t.Fatalf("GatewaysQuarantined = %d, want 1", st.GatewaysQuarantined)
	}
}

func TestHealthQuarantinesSkewedClock(t *testing.T) {
	s := healthServer(t)
	// gx agrees on FB but its PHY clock is 200 ms off the elected
	// receivers — useless for timestamping, quarantined on skew alone.
	for i := 0; i < 8; i++ {
		if _, err := s.CheckFrame(frame3(i, 0, 0.2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.QuarantinedGateways(); len(got) != 1 || got[0] != "gx" {
		t.Fatalf("quarantined = %v, want [gx]", got)
	}
}

func TestHealthProbationReinstates(t *testing.T) {
	s := healthServer(t)
	i := 0
	for ; i < 8; i++ {
		s.CheckFrame(frame3(i, 90000, 0))
	}
	if len(s.QuarantinedGateways()) != 1 {
		t.Fatal("setup: gx should be quarantined")
	}
	// gx behaves again: its shadow samples (judged against the fusion it
	// no longer joins) run a clean streak through probation.
	for n := 0; n < 8; n++ {
		s.CheckFrame(frame3(i, 0, 0))
		i++
	}
	if got := s.QuarantinedGateways(); len(got) != 0 {
		t.Fatalf("quarantined after probation = %v, want none", got)
	}
	// Reinstated for real: its copies join the fusion again.
	fv, err := s.CheckFrame(frame3(i, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if fv.QuarantinedExcluded != 0 || fv.Receivers != 3 {
		t.Fatalf("post-recovery verdict: %+v", fv)
	}
}

func TestHealthRelapseCountsAgain(t *testing.T) {
	s := healthServer(t)
	i := 0
	sick := func() {
		for n := 0; n < 8; n++ {
			s.CheckFrame(frame3(i, 90000, 0))
			i++
		}
	}
	clean := func() {
		for n := 0; n < 8; n++ {
			s.CheckFrame(frame3(i, 0, 0))
			i++
		}
	}
	sick()
	clean()
	sick()
	if st := s.Stats(); st.GatewaysQuarantined != 2 {
		t.Fatalf("GatewaysQuarantined = %d, want 2 (relapse counts)", st.GatewaysQuarantined)
	}
}

func TestHealthFailsOpenWhenAllQuarantined(t *testing.T) {
	s := New(Config{Health: HealthConfig{
		Enabled: true, Window: 8, MinSamples: 4, Probation: 100,
	}})
	s.Enroll("n", -22000, 10)
	s.Enroll("m", -5000, 10)
	// Quarantine gx via skew against two healthy receivers.
	for i := 0; i < 8; i++ {
		if _, err := s.CheckFrame(frame3(i, 0, 0.2)); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.QuarantinedGateways()) != 1 {
		t.Fatal("setup: gx should be quarantined")
	}
	// A frame heard ONLY by the quarantined gateway must still be judged.
	fv, err := s.CheckFrame([]PHYObservation{{
		GatewayID: "gx", DeviceID: "m", FrameID: "solo", FBHz: -5010,
		JitterHz: 40, ArrivalTime: 100,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if fv.Verdict != core.VerdictGenuine || fv.QuarantinedExcluded != 0 {
		t.Fatalf("fail-open verdict: %+v", fv)
	}
}

func TestHealthDisabledIsTransparent(t *testing.T) {
	s := New(Config{})
	s.Enroll("n", -22000, 10)
	for i := 0; i < 20; i++ {
		if _, err := s.CheckFrame(frame3(i, 90000, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.QuarantinedGateways(); got != nil {
		t.Fatalf("disabled tracker quarantined %v", got)
	}
	if st := s.Stats(); st.GatewaysQuarantined != 0 {
		t.Fatalf("GatewaysQuarantined = %d, want 0", st.GatewaysQuarantined)
	}
}

// TestHealthFilterElectionWeights unit-tests the weights filter hands the
// fusion's anchor election: 1 for clean or under-observed gateways,
// 1 + 4·outlierRate for flaky ones, and quarantine-dominated on the
// fail-open path.
func TestHealthFilterElectionWeights(t *testing.T) {
	h := newHealthTracker(HealthConfig{Enabled: true, Window: 8, MinSamples: 4})
	h.mu.Lock()
	for i := 0; i < 8; i++ {
		h.sample("ga", false, 0)    // clean
		h.sample("gx", i%2 == 1, 0) // flaky: rejection rate 0.5
		h.sample("gq", true, 0)     // hopeless: quarantined after MinSamples
	}
	h.mu.Unlock()

	active, excluded, elect := h.filter([]PHYObservation{
		{GatewayID: "ga"}, {GatewayID: "gx"}, {GatewayID: "gq"}, {GatewayID: "new"},
	})
	if len(active) != 3 || len(excluded) != 1 || excluded[0].GatewayID != "gq" {
		t.Fatalf("filter split: active %d, excluded %v", len(active), excluded)
	}
	if len(elect) != len(active) {
		t.Fatalf("elect len %d, active len %d", len(elect), len(active))
	}
	if elect[0] != 1 || elect[2] != 1 {
		t.Errorf("clean/under-observed weights = %v/%v, want 1/1", elect[0], elect[2])
	}
	if elect[1] != 3 { // 1 + 4·0.5
		t.Errorf("flaky gateway weight = %v, want 3", elect[1])
	}

	// Fail open: all copies quarantined stay active, but their election
	// weights keep the quarantine stain.
	active, excluded, elect = h.filter([]PHYObservation{{GatewayID: "gq"}})
	if len(active) != 1 || excluded != nil {
		t.Fatalf("fail-open split: active %d, excluded %v", len(active), excluded)
	}
	if elect[0] < quarantineElectWeight {
		t.Errorf("fail-open weight = %v, want >= %v", elect[0], quarantineElectWeight)
	}
}

// TestHealthElectionPenalizesOutlierProneAnchor drives the weighting end to
// end: a gateway with a 50% rejection rate — too flaky to trust, not flaky
// enough to quarantine — reports the frame's lowest jitter, and must still
// lose the anchor election (and with it the frame's PHY timestamp) to a
// clean receiver.
func TestHealthElectionPenalizesOutlierProneAnchor(t *testing.T) {
	s := healthServer(t)
	for i := 0; i < 8; i++ {
		bad := 0.0
		if i%2 == 1 {
			bad = 90000
		}
		if _, err := s.CheckFrame(frame3(i, bad, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.QuarantinedGateways(); len(got) != 0 {
		t.Fatalf("setup: gx should be flaky but not quarantined, got %v", got)
	}
	obs := []PHYObservation{
		{GatewayID: "ga", DeviceID: "n", FrameID: "anchor", FBHz: -22010, JitterHz: 40, ArrivalTime: 50},
		{GatewayID: "gb", DeviceID: "n", FrameID: "anchor", FBHz: -21990, JitterHz: 40, ArrivalTime: 50},
		{GatewayID: "gx", DeviceID: "n", FrameID: "anchor", FBHz: -22000, JitterHz: 30, ArrivalTime: 50.04},
	}
	// Control: raw fusion (no health signal) hands gx the anchor on its
	// optimistic jitter alone.
	raw, err := fuseDetail(obs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.GatewayID != "gx" {
		t.Fatalf("control: raw fusion anchor = %q, want gx", raw.GatewayID)
	}
	fv, err := s.CheckFrame(obs)
	if err != nil {
		t.Fatal(err)
	}
	if fv.GatewayID == "gx" {
		t.Fatalf("outlier-prone gateway won the weighted anchor election: %+v", fv)
	}
	if fv.ArrivalTime != 50 {
		t.Fatalf("fused timestamp %v came from the flaky clock, want 50", fv.ArrivalTime)
	}
}
