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

// TestApplyRealMatchesComplex checks the two real-trace kernels the AIC
// detector filters every capture with — float64 on the reference lane,
// float32 on the default lane — against the complex Apply on the same
// trace, at the edge outputs (where the kernel window overhangs the trace)
// and in the interior.
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
	for _, r := range [][2]int{{0, taps}, {700, 900}, {n - taps, n}, {0, n}} {
		lo, hi := r[0], r[1]
		check(fmt.Sprintf("ApplyRealRangeInto [%d, %d)", lo, hi),
			f.ApplyRealRangeInto(nil, xr, lo, hi), lo, 1, hi-lo, 1e-12)
		check(fmt.Sprintf("ApplyRealRangeInto32 [%d, %d)", lo, hi),
			widen(f.ApplyRealRangeInto32(nil, x32, lo, hi)), lo, 1, hi-lo, 1e-5)
	}
}

// convRealAt32 is the per-output float32 evaluator ApplyRealRangeInto32
// called before firRange32 ran its interior outputs inline: the oracle for
// TestFIRRange32MatchesConvRealAt32.
func convRealAt32(x, rev []float32, i int) float32 {
	m := len(rev)
	delay := m / 2
	base := i + delay - (m - 1)
	if base >= 0 && base+m <= len(x) {
		w := x[base : base+m]
		rev = rev[:len(w)]
		var a0, a1, a2, a3 float32
		j := 0
		for ; j+4 <= len(w); j += 4 {
			w4 := w[j : j+4 : j+4]
			r4 := rev[j : j+4 : j+4]
			a0 += w4[0] * r4[0]
			a1 += w4[1] * r4[1]
			a2 += w4[2] * r4[2]
			a3 += w4[3] * r4[3]
		}
		for ; j < len(w); j++ {
			a0 += w[j] * rev[j]
		}
		return (a0 + a1) + (a2 + a3)
	}
	var acc float32
	for j, t := range rev {
		if k := base + j; k >= 0 && k < len(x) {
			acc += x[k] * t
		}
	}
	return acc
}

// TestFIRRange32MatchesConvRealAt32 pins the float32 range FIR to the
// per-output convRealAt32 it replaced, with ==, at the onset detector's tap
// counts (17 and 129) and a tap count below one unrolled group (3): ranges
// on the left edge, in the interior, across the right edge, over the whole
// trace, an empty range, and a trace shorter than the kernel, where every
// output is an edge output. The taps are random rather than a designed
// low-pass, whose Hann-windowed end taps are zero and would hide a
// misplaced tail term.
func TestFIRRange32MatchesConvRealAt32(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var dst []float32
	for _, taps := range []int{3, 17, 129} {
		f := &FIRFilter{Taps: make([]float64, taps)}
		for i := range f.Taps {
			f.Taps[i] = rng.NormFloat64()
		}
		rev := f.reversed32()
		for _, n := range []int{taps / 2, 1500} {
			x := make([]float32, n)
			for i := range x {
				x[i] = float32(rng.NormFloat64())
			}
			for _, r := range [][2]int{{0, taps}, {0, n}, {n / 3, n/3 + 200}, {n - taps - 5, n}, {n / 2, n / 2}} {
				lo, hi := max(r[0], 0), min(r[1], n)
				dst = f.ApplyRealRangeInto32(dst, x, lo, hi)
				if len(dst) != max(hi-lo, 0) {
					t.Fatalf("taps %d n %d [%d, %d): %d outputs", taps, n, lo, hi, len(dst))
				}
				for j, got := range dst {
					if want := convRealAt32(x, rev, lo+j); got != want {
						t.Fatalf("taps %d n %d [%d, %d): output %d = %v, want %v", taps, n, lo, hi, lo+j, got, want)
					}
				}
			}
		}
	}
}

func TestFIRRange32ZeroAlloc(t *testing.T) {
	f := LowPassFIR(100e3, 2.4e6, 129)
	x := make([]float32, 1024)
	dst := f.ApplyRealRangeInto32(nil, x, 100, 900)
	if allocs := testing.AllocsPerRun(20, func() {
		dst = f.ApplyRealRangeInto32(dst, x, 100, 900)
	}); allocs != 0 {
		t.Errorf("warm ApplyRealRangeInto32 allocated %v times per run, want 0", allocs)
	}
}
