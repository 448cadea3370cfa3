package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNextPow2(t *testing.T) {
	tests := []struct {
		in, want int
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8},
		{1023, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, tt := range tests {
		if got := NextPow2(tt.in); got != tt.want {
			t.Errorf("NextPow2(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false, want true", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true, want false", n)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n = 256
	const bin = 17
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*bin*float64(i)/n))
	}
	spec := FFT(x)
	peak, magSq := PeakBinSq(spec)
	if peak != bin {
		t.Fatalf("peak bin = %d, want %d", peak, bin)
	}
	if math.Abs(math.Sqrt(magSq)-n) > 1e-6 {
		t.Errorf("peak magnitude = %f, want %d", math.Sqrt(magSq), n)
	}
	// All other bins should be tiny.
	for i, v := range spec {
		if i == bin {
			continue
		}
		if cmplx.Abs(v) > 1e-6 {
			t.Errorf("bin %d leakage %g", i, cmplx.Abs(v))
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 512)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := FFT(x)
	PlanFor(len(y)).InverseInPlace(y)
	for i := range x {
		if cmplx.Abs(y[i]-x[i]) > 1e-9 {
			t.Fatalf("round trip sample %d: got %v want %v", i, y[i], x[i])
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64, sizeSel uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 << (1 + sizeSel%9) // 2..512
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		y := FFT(x)
		PlanFor(len(y)).InverseInPlace(y)
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, 256)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	spec := FFT(x)
	timeEnergy := Power(x) * float64(len(x))
	freqEnergy := Power(spec)
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Errorf("Parseval violated: time %f freq %f", timeEnergy, freqEnergy)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 128
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := 0; i < n; i++ {
			a[i] = complex(r.NormFloat64(), r.NormFloat64())
			b[i] = complex(r.NormFloat64(), r.NormFloat64())
			sum[i] = a[i] + b[i]
		}
		sumSpec := FFT(sum)
		specA, specB := FFT(a), FFT(b)
		for i := range sumSpec {
			if cmplx.Abs(sumSpec[i]-(specA[i]+specB[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBinFrequency(t *testing.T) {
	tests := []struct {
		k, n int
		rate float64
		want float64
	}{
		{0, 8, 800, 0},
		{1, 8, 800, 100},
		{4, 8, 800, 400},
		{5, 8, 800, -300},
		{7, 8, 800, -100},
	}
	for _, tt := range tests {
		if got := BinFrequency(tt.k, tt.n, tt.rate); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("BinFrequency(%d,%d,%f) = %f, want %f", tt.k, tt.n, tt.rate, got, tt.want)
		}
	}
}

func TestInterpolatePeakRecoversOffset(t *testing.T) {
	// A tone between bins: interpolation should recover the fractional part.
	const n = 1024
	trueBin := 100.3
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*trueBin*float64(i)/n))
	}
	// Window to reduce leakage bias.
	w := HannWindow(n)
	for i := range x {
		x[i] *= complex(w[i], 0)
	}
	spec := FFT(x)
	peak, _ := PeakBinSq(spec)
	frac := InterpolatePeak(spec, peak)
	got := float64(peak) + frac
	if math.Abs(got-trueBin) > 0.05 {
		t.Errorf("interpolated bin = %f, want %f", got, trueBin)
	}
}

func TestSpectrogramShapeAndPeak(t *testing.T) {
	// Constant tone: every frame should peak at the same bin.
	const n = 2048
	const rate = 2048.0
	const freq = 256.0
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*freq*float64(i)/rate))
	}
	w := KaiserWindow(128, 8)
	sg := Spectrogram(x, w, 16)
	if len(sg) == 0 {
		t.Fatal("empty spectrogram")
	}
	wantFrames := (n-128)/(128-16) + 1
	if len(sg) != wantFrames {
		t.Fatalf("frames = %d, want %d", len(sg), wantFrames)
	}
	for f, psd := range sg {
		best, bestV := 0, 0.0
		for i, v := range psd {
			if v > bestV {
				bestV = v
				best = i
			}
		}
		gotFreq := BinFrequency(best, len(psd), rate)
		if math.Abs(gotFreq-freq) > rate/128 {
			t.Errorf("frame %d peak at %f Hz, want %f", f, gotFreq, freq)
		}
	}
}

func TestSpectrogramEmptyInputs(t *testing.T) {
	if sg := Spectrogram(nil, KaiserWindow(16, 8), 4); sg != nil {
		t.Error("expected nil spectrogram for empty trace")
	}
	if sg := Spectrogram(make([]complex128, 8), KaiserWindow(16, 8), 4); sg != nil {
		t.Error("expected nil spectrogram for trace shorter than window")
	}
}

func BenchmarkFFT4096(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}
