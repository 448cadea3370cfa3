package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func tone(n int, freq, rate float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*freq*float64(i)/rate))
	}
	return x
}

func TestLowPassFIRPassesAndStops(t *testing.T) {
	const rate = 10000.0
	f := LowPassFIR(1000, rate, 129)
	pass := f.Apply(tone(4096, 300, rate))
	stop := f.Apply(tone(4096, 3000, rate))
	passP := Power(pass[200 : len(pass)-200])
	stopP := Power(stop[200 : len(stop)-200])
	if passP < 0.8 {
		t.Errorf("passband power = %f, want ~1", passP)
	}
	if stopP > 0.01*passP {
		t.Errorf("stopband power = %f, want << passband %f", stopP, passP)
	}
}

func TestLowPassFIRUnityDCGain(t *testing.T) {
	f := LowPassFIR(100, 1000, 65)
	var sum float64
	for _, h := range f.Taps {
		sum += h
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("DC gain = %f, want 1", sum)
	}
}

func TestLowPassFIROddTaps(t *testing.T) {
	f := LowPassFIR(100, 1000, 64)
	if len(f.Taps)%2 != 1 {
		t.Errorf("taps = %d, want odd", len(f.Taps))
	}
	f2 := LowPassFIR(100, 1000, 1)
	if len(f2.Taps) < 3 {
		t.Errorf("taps = %d, want >= 3", len(f2.Taps))
	}
}

func TestFilterDelayCompensation(t *testing.T) {
	// A step through the filter should transition near the original step
	// index, not shifted by the group delay.
	const n = 1000
	x := make([]complex128, n)
	for i := n / 2; i < n; i++ {
		x[i] = 1
	}
	f := LowPassFIR(100, 1000, 51)
	y := f.Apply(x)
	// Find where output crosses 0.5.
	cross := -1
	for i := 1; i < n; i++ {
		if real(y[i-1]) < 0.5 && real(y[i]) >= 0.5 {
			cross = i
			break
		}
	}
	if cross < 0 {
		t.Fatal("no crossing found")
	}
	if d := cross - n/2; d < -3 || d > 3 {
		t.Errorf("step crossing at %d, want near %d (delta %d)", cross, n/2, d)
	}
}

// TestApplyRealMatchesComplex checks the four real-trace kernels the AIC
// detector filters every capture with — the float64 pair on the reference
// lane, the float32 pair on the default lane — against the complex Apply on
// the same trace, at the edge outputs (where the kernel window overhangs
// the trace) and in the interior.
func TestApplyRealMatchesComplex(t *testing.T) {
	const n, taps = 1500, 129
	f := LowPassFIR(100, 1000, taps)
	rng := rand.New(rand.NewSource(19))
	xr := make([]float64, n)
	x32 := make([]float32, n)
	xc := make([]complex128, n)
	for i := range xr {
		x32[i] = float32(math.Sin(2*math.Pi*30*float64(i)/1000) + 0.3*rng.NormFloat64())
		xr[i] = float64(x32[i]) // exactly representable on both lanes
		xc[i] = complex(xr[i], 0)
	}
	want := f.Apply(xc)
	// check compares got[j] with the complex output at index first+j·step.
	check := func(name string, got []float64, first, step, count int, tol float64) {
		t.Helper()
		if len(got) != count {
			t.Fatalf("%s: %d outputs, want %d", name, len(got), count)
		}
		for j, v := range got {
			i := first + j*step
			if d := math.Abs(v - real(want[i])); d > tol {
				t.Fatalf("%s: output %d (index %d) off by %g", name, j, i, d)
			}
		}
	}
	widen := func(x []float32) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = float64(v)
		}
		return out
	}
	for _, dec := range []int{1, 4} {
		count := (n + dec - 1) / dec
		check(fmt.Sprintf("ApplyRealDecimatedInto dec %d", dec),
			f.ApplyRealDecimatedInto(nil, xr, dec), 0, dec, count, 1e-12)
		check(fmt.Sprintf("ApplyRealDecimatedInto32 dec %d", dec),
			widen(f.ApplyRealDecimatedInto32(nil, x32, dec)), 0, dec, count, 1e-5)
	}
	for _, r := range [][2]int{{0, taps}, {700, 900}, {n - taps, n}, {0, n}} {
		lo, hi := r[0], r[1]
		check(fmt.Sprintf("ApplyRealRangeInto [%d, %d)", lo, hi),
			f.ApplyRealRangeInto(nil, xr, lo, hi), lo, 1, hi-lo, 1e-12)
		check(fmt.Sprintf("ApplyRealRangeInto32 [%d, %d)", lo, hi),
			widen(f.ApplyRealRangeInto32(nil, x32, lo, hi)), lo, 1, hi-lo, 1e-5)
	}
}
