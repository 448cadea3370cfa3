package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIQSplitCombine(t *testing.T) {
	x := []complex128{complex(1, 2), complex(-3, 4), complex(0, -5)}
	iData := I(x)
	wantI := []float64{1, -3, 0}
	for i := range x {
		if iData[i] != wantI[i] {
			t.Fatalf("split mismatch at %d", i)
		}
	}
	for i := range x {
		if back := complex(iData[i], imag(x[i])); back != x[i] {
			t.Fatalf("combine mismatch at %d: %v vs %v", i, back, x[i])
		}
	}
}

func TestPower(t *testing.T) {
	x := []complex128{complex(3, 4), complex(0, 0)}
	if got := Power(x); math.Abs(got-12.5) > 1e-12 {
		t.Errorf("Power = %f, want 12.5", got)
	}
	if Power(nil) != 0 {
		t.Error("Power(nil) != 0")
	}
}

func TestScaleAndPowerProperty(t *testing.T) {
	f := func(seed int64, gRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := 0.1 + float64(gRaw)/64
		x := make([]complex128, 64)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		p0 := Power(x)
		ScaleInPlace(x, g)
		p1 := Power(x)
		return math.Abs(p1-g*g*p0) < 1e-9*(1+p0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDBConversions(t *testing.T) {
	if got := FromdB(30); math.Abs(got-1000) > 1e-9 {
		t.Errorf("FromdB(30) = %f", got)
	}
	if got := FromdB(-10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("FromdB(-10) = %f", got)
	}
}

func TestDBRoundTripProperty(t *testing.T) {
	f := func(raw int16) bool {
		db := float64(raw) / 100 // -327..327 dB
		return math.Abs(10*math.Log10(FromdB(db))-db) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPhaseMagnitude(t *testing.T) {
	x := []complex128{complex(0, 2)}
	if got := Phase(x)[0]; math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("Phase = %f", got)
	}
}
