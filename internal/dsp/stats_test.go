package dsp

import (
	"math"
	"testing"
)

func TestMeanStd(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := Mean(x); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Mean = %f", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 4, 1, 5})
	if lo != -1 || hi != 5 {
		t.Errorf("MinMax = (%f, %f)", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Error("empty MinMax should be (0, 0)")
	}
}

func TestPercentile(t *testing.T) {
	x := []float64{10, 20, 30, 40, 50}
	tests := []struct {
		p, want float64
	}{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {75, 40}, {10, 14},
	}
	for _, tt := range tests {
		if got := Percentile(x, tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%f) = %f, want %f", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	x := []float64{3, 1, 2}
	Percentile(x, 50)
	if x[0] != 3 || x[1] != 1 || x[2] != 2 {
		t.Error("Percentile must not sort in place")
	}
}

func TestSummarize(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	s := Summarize(x)
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if s.P25 != 2 || s.P75 != 4 {
		t.Errorf("quartiles = %f, %f", s.P25, s.P75)
	}
}

func TestMeanMaxAbs(t *testing.T) {
	x := []float64{-3, 1, -2}
	if got := MaxAbs(x); got != 3 {
		t.Errorf("MaxAbs = %f", got)
	}
	if MaxAbs(nil) != 0 {
		t.Error("empty abs stats should be 0")
	}
}

func TestKaiserWindowProperties(t *testing.T) {
	w := KaiserWindow(128, 8)
	if len(w) != 128 {
		t.Fatalf("len = %d", len(w))
	}
	// Symmetric, peak in the middle, edges small.
	for i := 0; i < 64; i++ {
		if math.Abs(w[i]-w[127-i]) > 1e-12 {
			t.Fatalf("asymmetric at %d", i)
		}
	}
	if w[64] < 0.99 {
		t.Errorf("center = %f, want ~1", w[64])
	}
	if w[0] > 0.01 {
		t.Errorf("edge = %f, want ~0 for beta=8", w[0])
	}
	if got := KaiserWindow(1, 8); len(got) != 1 || got[0] != 1 {
		t.Error("single-point window should be [1]")
	}
	if KaiserWindow(0, 8) != nil {
		t.Error("zero-length window should be nil")
	}
}

func TestBesselI0(t *testing.T) {
	// Reference values: I0(0)=1, I0(1)≈1.26607, I0(5)≈27.2399.
	tests := []struct {
		x, want float64
	}{
		{0, 1}, {1, 1.2660658777520084}, {5, 27.239871823604442},
	}
	for _, tt := range tests {
		if got := BesselI0(tt.x); math.Abs(got-tt.want) > 1e-9*tt.want {
			t.Errorf("BesselI0(%f) = %f, want %f", tt.x, got, tt.want)
		}
	}
}

func TestHannWindow(t *testing.T) {
	w := HannWindow(5)
	want := []float64{0, 0.5, 1, 0.5, 0}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Fatalf("Hann = %v, want %v", w, want)
		}
	}
	if HannWindow(0) != nil {
		t.Error("zero-length should be nil")
	}
}
