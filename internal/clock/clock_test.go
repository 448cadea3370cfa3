package clock

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOscillatorDrift(t *testing.T) {
	o := &Oscillator{DriftPPM: 40}
	// After 250 s of global time, a +40 ppm clock is 10 ms ahead.
	local := o.LocalAt(250)
	if math.Abs(local-250.01) > 1e-9 {
		t.Errorf("local = %f, want 250.01", local)
	}
}

func TestSyncSessionsPerHourPaperExample(t *testing.T) {
	// Paper §3.2: 40 ppm drift, sub-10 ms error → 14 sessions/hour.
	got := SyncSessionsPerHour(0.010, 40)
	if math.Abs(got-14.4) > 0.1 {
		t.Errorf("sessions/hour = %f, want 14.4", got)
	}
	if SyncSessionsPerHour(0, 40) != 0 || SyncSessionsPerHour(0.01, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestMaxBufferTimePaperExample(t *testing.T) {
	// Paper §3.2: 10 ms bound at 40 ppm → 250 s ≈ 4.1 minutes.
	got := MaxBufferTime(0.010, 40)
	if math.Abs(got-250) > 1e-9 {
		t.Errorf("buffer time = %f, want 250", got)
	}
	if got/60 < 4.0 || got/60 > 4.2 {
		t.Errorf("buffer time = %f min, want ~4.1", got/60)
	}
}

func TestSyncSessionsInverseOfBufferTime(t *testing.T) {
	f := func(errRaw, ppmRaw uint8) bool {
		maxErr := 0.001 + float64(errRaw)/1000
		ppm := 1 + float64(ppmRaw)
		sessions := SyncSessionsPerHour(maxErr, ppm)
		buffer := MaxBufferTime(maxErr, ppm)
		return math.Abs(sessions*buffer-3600) < 1e-6*3600
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
