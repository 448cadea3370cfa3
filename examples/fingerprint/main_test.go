package main

import (
	"bytes"
	"testing"
)

// TestFingerprintLookAlikesNeedRSSI runs the example end to end. Nodes 3, 8
// and 14 have biases within about one frame's FB jitter of each other, so
// by FB alone the adversary must not attribute their frames confidently,
// while the joint FB + RSSI profile must.
func TestFingerprintLookAlikesNeedRSSI(t *testing.T) {
	var out bytes.Buffer
	s, err := run(&out)
	if err != nil {
		t.Fatal(err)
	}
	if s.fbOnly.confident() {
		t.Errorf("FB-only attribution of the look-alike nodes is confident (%v); want ambiguous:\n%s", s.fbOnly, out.String())
	}
	if !s.joint.confident() {
		t.Errorf("FB + RSSI attribution of the look-alike nodes is not confident (%v):\n%s", s.joint, out.String())
	}
}
