package radio

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFreeSpacePathLossKnownValue(t *testing.T) {
	// 1.07 km at 869.75 MHz ≈ 91.8 dB.
	got := FreeSpacePathLoss(1070, 869.75e6)
	if math.Abs(got-91.85) > 0.1 {
		t.Errorf("FSPL = %f, want ~91.85", got)
	}
	if FreeSpacePathLoss(0, 869e6) != 0 || FreeSpacePathLoss(100, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestFreeSpacePathLossDistanceSquareLaw(t *testing.T) {
	f := func(dRaw uint16) bool {
		d := 1 + float64(dRaw)
		// Doubling distance adds ~6.02 dB.
		a := FreeSpacePathLoss(d, 869e6)
		b := FreeSpacePathLoss(2*d, 869e6)
		return math.Abs(b-a-6.0206) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLogDistance(t *testing.T) {
	l := LogDistance{RefLossdB: 40, RefDistance: 1, Exponent: 3}
	if got := l.LossdB(1); got != 40 {
		t.Errorf("loss at ref = %f", got)
	}
	if got := l.LossdB(10); math.Abs(got-70) > 1e-9 {
		t.Errorf("loss at 10m = %f, want 70", got)
	}
	// Below reference distance: clamped.
	if got := l.LossdB(0.1); got != 40 {
		t.Errorf("loss below ref = %f, want 40", got)
	}
	// Zero RefDistance defaults to 1.
	l2 := LogDistance{RefLossdB: 40, Exponent: 2}
	if got := l2.LossdB(10); math.Abs(got-60) > 1e-9 {
		t.Errorf("default ref distance loss = %f", got)
	}
}

func TestPropagationDelayMatchesPaper(t *testing.T) {
	// Paper §8.2: 1.07 km → 3.57 µs.
	got := PropagationDelay(1070)
	if math.Abs(got-3.57e-6) > 0.02e-6 {
		t.Errorf("delay = %g, want ~3.57 µs", got)
	}
}

func TestDBmConversionRoundTrip(t *testing.T) {
	for _, dbm := range []float64{-120, -30, 0, 14} {
		if got := PowerTodBm(DBmToPower(dbm)); math.Abs(got-dbm) > 1e-9 {
			t.Errorf("round trip %f -> %f", dbm, got)
		}
	}
	if !math.IsInf(PowerTodBm(0), -1) {
		t.Error("PowerTodBm(0) should be -Inf")
	}
}

func TestSNRAtReceiver(t *testing.T) {
	// 14 dBm TX, 100 dB loss, −100 dBm floor → 14 dB SNR.
	if got := SNRAtReceiver(14, 100, -100); got != 14 {
		t.Errorf("SNR = %f, want 14", got)
	}
}
