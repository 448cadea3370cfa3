package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBuildingSensorsAllGenuine runs the example end to end. The scenario
// has no attacker, so every sensor's checked uplink must be judged genuine
// and timestamped.
func TestBuildingSensorsAllGenuine(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	sensors := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "sensor-") {
			continue
		}
		sensors++
		if !strings.Contains(line, "verdict=genuine") {
			t.Errorf("genuine sensor not accepted: %s", line)
		}
	}
	if sensors != 4 {
		t.Errorf("%d sensor lines, want 4:\n%s", sensors, out.String())
	}
}
