package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// burstTrace builds noise followed by a higher-variance oscillation starting
// at onset.
func burstTrace(rng *rand.Rand, n, onset int, noiseSigma, amp float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * noiseSigma
	}
	for i := onset; i < n; i++ {
		x[i] += amp * math.Sin(2*math.Pi*0.05*float64(i-onset))
	}
	return x
}

func TestAICOnsetFindsBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, onset = 4000, 1700
	x := burstTrace(rng, n, onset, 0.05, 1)
	var sc AICScratch
	got := sc.Onset(x, 10)
	if d := got - onset; d < -5 || d > 5 {
		t.Errorf("Onset = %d, want ~%d", got, onset)
	}
}

func TestAICOnsetShortTrace(t *testing.T) {
	var sc AICScratch
	if got := sc.Onset([]float64{1, 2, 3}, 5); got != -1 {
		t.Errorf("short trace onset = %d, want -1", got)
	}
	if got := sc.Onset(nil, 1); got != -1 {
		t.Errorf("nil trace onset = %d, want -1", got)
	}
}

func TestAICOnsetProperty(t *testing.T) {
	// Over random onsets and moderate noise, the picker should land within
	// 20 samples of the true onset.
	f := func(seed int64, onsetSel uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3000
		onset := 500 + int(onsetSel)%2000
		x := burstTrace(rng, n, onset, 0.1, 1)
		var sc AICScratch
		got := sc.Onset(x, 10)
		d := got - onset
		return d >= -20 && d <= 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAICCurveMinimumAtPick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := burstTrace(rng, 2000, 900, 0.05, 1)
	var sc AICScratch
	pick := sc.Onset(x, 10)
	curve := AICCurve(x, 10)
	minV := math.Inf(1)
	minI := -1
	for i, v := range curve {
		if !math.IsNaN(v) && v < minV {
			minV = v
			minI = i
		}
	}
	if minI != pick {
		t.Errorf("curve minimum at %d, pick at %d", minI, pick)
	}
	if !math.IsNaN(curve[0]) || !math.IsNaN(curve[len(curve)-1]) {
		t.Error("margins should be NaN")
	}
}

// fastLn32 powers the float32 AIC lane; require ~float32 accuracy over the
// full range of segment statistics the picker can produce.
func TestFastLn32MatchesMathLog(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	check := func(v float32) {
		got := float64(fastLn32(v))
		want := math.Log(float64(v))
		// A few ulps of float32 around the result magnitude.
		tol := 4e-7 * (1 + math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Fatalf("fastLn32(%g) = %v, want %v (err %g)", v, got, want, got-want)
		}
	}
	for _, v := range []float32{1e-30, 1e-20, 1e-6, 0.5, 0.9999999, 1, 1.0000001, 2, math.Pi, 1e6, 1e30} {
		check(v)
	}
	for i := 0; i < 20000; i++ {
		// Log-uniform over the floor..1e30 range the AIC lane feeds in.
		e := rng.Float64()*60 - 30
		check(float32(math.Pow(10, e)))
	}
}

// The strided search must land on the dense search's pick on the same
// lane, and the float32 lane on the float64 pick to within the coarse
// stage's refinement slack: the next stage re-searches ±margin·dec samples,
// so a handful of samples of disagreement is free. Production runs stride
// 4 (core's aicSearchStride); stride 1 is the dense search. Onsets within
// one stride of either margin exercise the second pass's clamping: every
// pick must stay inside [margin, n−margin).
func TestOnset32ParityWithOnset(t *testing.T) {
	const margin = 10
	rng := rand.New(rand.NewSource(17))
	var sc AICScratch
	for _, stride := range []int{1, 4} {
		for trial := 0; trial < 80; trial++ {
			n := 2000 + rng.Intn(2000)
			onset := 400 + rng.Intn(n-800)
			switch trial % 4 {
			case 1:
				onset = margin - stride + 1 + rng.Intn(2*stride-1)
			case 2:
				onset = n - margin - stride + 1 + rng.Intn(2*stride-1)
			}
			x := burstTrace(rng, n, onset, 0.05+rng.Float64()*0.2, 1)
			x32 := make([]float32, n)
			for i, v := range x {
				x32[i] = float32(v)
			}
			k64 := sc.Onset(x, margin)
			ks := sc.OnsetStrided(x, margin, stride)
			k32 := sc.Onset32Strided(x32, margin, 1)
			k32s := sc.Onset32Strided(x32, margin, stride)
			for _, k := range []int{ks, k32s} {
				if k < margin || k >= n-margin {
					t.Fatalf("stride %d trial %d: pick %d outside [%d, %d) (onset %d)", stride, trial, k, margin, n-margin, onset)
				}
			}
			if ks != k64 || k32s != k32 {
				t.Fatalf("stride %d trial %d: strided picks %d (float64) / %d (float32), dense %d / %d (onset %d)",
					stride, trial, ks, k32s, k64, k32, onset)
			}
			if d := k32 - k64; d < -4 || d > 4 {
				t.Fatalf("trial %d: Onset32Strided = %d, Onset = %d (onset %d)", trial, k32, k64, onset)
			}
		}
	}
}

func TestOnset32ShortTrace(t *testing.T) {
	var sc AICScratch
	const margin = 5
	for _, stride := range []int{1, 4} {
		if got := sc.Onset32Strided([]float32{1, 2, 3}, margin, stride); got != -1 {
			t.Errorf("stride %d: short trace onset = %d, want -1", stride, got)
		}
		if got := sc.Onset32Strided(nil, 1, stride); got != -1 {
			t.Errorf("stride %d: nil trace onset = %d, want -1", stride, got)
		}
		// 2·margin+2 samples is the shortest trace with a candidate.
		x := make([]float32, 2*margin+2)
		for i := range x {
			x[i] = float32(i % 3)
		}
		if got := sc.Onset32Strided(x[:len(x)-1], margin, stride); got != -1 {
			t.Errorf("stride %d: %d-sample trace onset = %d, want -1", stride, len(x)-1, got)
		}
		if got := sc.Onset32Strided(x, margin, stride); got != margin {
			t.Errorf("stride %d: %d-sample trace onset = %d, want %d", stride, len(x), got, margin)
		}
	}
}

func BenchmarkAICOnset(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	x := burstTrace(rng, 4096, 1700, 0.05, 1)
	x32 := make([]float32, len(x))
	for i, v := range x {
		x32[i] = float32(v)
	}
	var sc AICScratch
	for _, stride := range []int{1, 4} {
		b.Run(fmt.Sprintf("float64-stride%d", stride), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc.OnsetStrided(x, 8, stride)
			}
		})
		b.Run(fmt.Sprintf("float32-stride%d", stride), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc.Onset32Strided(x32, 8, stride)
			}
		})
	}
}
