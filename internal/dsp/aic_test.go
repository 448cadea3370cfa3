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

// fastLn32 is the float32 AIC lane's log as a scalar function — the form
// aicScan32 inlines lane by lane (its oracle in
// TestAICSearchesMatchClosureForms). Range reduction to [√2/2, √2) plus the
// Cephes logf polynomial in Estrin's form; for strictly positive, finite,
// normal inputs (the lane floors its arguments at 1e-30).
func fastLn32(v float32) float32 {
	bits := math.Float32bits(v)
	e := int32(bits>>23) - 127
	m := math.Float32frombits(bits&0x7fffff | 0x3f800000) // mantissa in [1, 2)
	if m > 1.4142135 {
		m *= 0.5
		e++
	}
	z := m - 1
	zz := z * z
	z4 := zz * zz
	p01 := 3.3333331174e-1 + z*-2.4999993993e-1
	p23 := 2.0000714765e-1 + z*-1.6668057665e-1
	p45 := 1.4249322787e-1 + z*-1.2420140846e-1
	p67 := 1.1676998740e-1 + z*-1.1514610310e-1
	p := (p01 + zz*p23) + z4*((p45+zz*p67)+z4*7.0376836292e-2)
	r := z + zz*z*p - 0.5*zz
	return r + 0.69314718*float32(e)
}

// fastLn32 defines the float32 lane's log; require ~float32 accuracy over
// the full range of segment statistics the picker can produce.
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

// prefixRef is the prefix-sum loop aicPrefix replaced: each sum re-read
// from the slice the previous iteration stored it to.
func prefixRef[T float32 | float64](x []T) (sum, sumSq []float64) {
	sum = make([]float64, len(x)+1)
	sumSq = make([]float64, len(x)+1)
	for i, v := range x {
		v64 := float64(v)
		sum[i+1] = sum[i] + v64
		sumSq[i+1] = sumSq[i] + v64*v64
	}
	return sum, sumSq
}

// aicAtRef and aicAt32Ref are the per-candidate closures OnsetStrided and
// Onset32Strided evaluated before their searches became call-free loops;
// stridedRef is the two-pass search around them, skipping the incumbent in
// the dense pass as it did.
func aicAtRef(sum, sumSq []float64) func(k int) float64 {
	n := len(sum) - 1
	return func(k int) float64 {
		m1 := float64(k)
		v1 := sumSq[k]/m1 - (sum[k]/m1)*(sum[k]/m1)
		if v1 < 1e-300 {
			v1 = 1e-300
		}
		m2 := float64(n - k)
		mean2 := (sum[n] - sum[k]) / m2
		v2 := (sumSq[n]-sumSq[k])/m2 - mean2*mean2
		if v2 < 1e-300 {
			v2 = 1e-300
		}
		return float64(k)*math.Log(v1) + float64(n-k-1)*math.Log(v2)
	}
}

func aicAt32Ref(sum, sumSq []float64, lnLen []float32, invLen []float64) func(k int) float32 {
	n := len(sum) - 1
	totSum, totSq := sum[n], sumSq[n]
	return func(k int) float32 {
		m2 := n - k
		s1 := sumSq[k] - sum[k]*(sum[k]*invLen[k])
		d2 := totSum - sum[k]
		s2 := (totSq - sumSq[k]) - d2*(d2*invLen[m2])
		if s1 < 1e-30 {
			s1 = 1e-30
		}
		if s2 < 1e-30 {
			s2 = 1e-30
		}
		return float32(k)*(fastLn32(float32(s1))-lnLen[k]) +
			float32(n-k-1)*(fastLn32(float32(s2))-lnLen[m2])
	}
}

func stridedRef[F float32 | float64](aicAt func(int) F, n, margin, stride int) int {
	if margin < 1 {
		margin = 1
	}
	if n < 2*margin+2 {
		return -1
	}
	if stride < 1 {
		stride = 1
	}
	best := F(math.Inf(1))
	bestK := -1
	for k := margin; k < n-margin; k += stride {
		if aic := aicAt(k); aic < best {
			best = aic
			bestK = k
		}
	}
	if stride > 1 && bestK >= 0 {
		lo := bestK - stride + 1
		if lo < margin {
			lo = margin
		}
		hi := bestK + stride
		if hi > n-margin {
			hi = n - margin
		}
		for k := lo; k < hi; k++ {
			if k == bestK {
				continue
			}
			if aic := aicAt(k); aic < best {
				best = aic
				bestK = k
			}
		}
	}
	return bestK
}

// TestAICSearchesMatchClosureForms pins both call-free AIC searches to the
// closure forms they replaced, with ==: the prefix sums bit for bit, every
// candidate's AIC value bit for bit (so the inlined float32 log is
// fastLn32 to the last bit), and the picks of OnsetStrided and
// Onset32Strided at stride 1 and 4 — over bursts at random onsets and
// noise levels, onsets within a stride of either margin, noise-only
// traces, and constant stretches that hit the variance floors.
func TestAICSearchesMatchClosureForms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var sc AICScratch
	for trial := 0; trial < 1500; trial++ {
		n := 40 + rng.Intn(4000)
		margin := 1 + rng.Intn(20)
		if n < 2*margin+2 {
			n = 2*margin + 2 + rng.Intn(8)
		}
		var x []float64
		switch trial % 5 {
		case 0, 1:
			x = burstTrace(rng, n, rng.Intn(n), 0.01+rng.Float64()*0.5, 1)
		case 2: // onset within a stride of either margin
			onset := margin - 3 + rng.Intn(7)
			if rng.Intn(2) == 0 {
				onset = n - margin - 3 + rng.Intn(7)
			}
			x = burstTrace(rng, n, max(0, min(onset, n-1)), 0.05, 1)
		case 3: // noise only
			x = burstTrace(rng, n, n, 0.3, 0)
		case 4: // silence, then a burst: the first segment's variance floors
			x = burstTrace(rng, n, n/3, 0, 1)
		}
		x32 := make([]float32, n)
		for i, v := range x {
			x32[i] = float32(v)
		}
		sum, sumSq := prefixRef(x)
		sum32, sumSq32 := prefixRef(x32)
		gs, gq := sc.prefixSums(n)
		aicPrefix(gs, gq, x)
		for i := range sum {
			if gs[i] != sum[i] || gq[i] != sumSq[i] {
				t.Fatalf("trial %d: aicPrefix float64 [%d] = (%v, %v), want (%v, %v)", trial, i, gs[i], gq[i], sum[i], sumSq[i])
			}
		}
		aicPrefix(gs, gq, x32)
		for i := range sum32 {
			if gs[i] != sum32[i] || gq[i] != sumSq32[i] {
				t.Fatalf("trial %d: aicPrefix float32 [%d] = (%v, %v), want (%v, %v)", trial, i, gs[i], gq[i], sum32[i], sumSq32[i])
			}
		}
		sc.ensureLenTables(n)
		ref64 := aicAtRef(sum, sumSq)
		ref32 := aicAt32Ref(sum32, sumSq32, sc.lnLen, sc.invLen)
		for k := margin; k < n-margin; k++ {
			if got, _ := aicScan(sum, sumSq, k, k+1, 1, math.Inf(1), -1); got != ref64(k) {
				t.Fatalf("trial %d: aicScan AIC(%d) = %v, want %v", trial, k, got, ref64(k))
			}
			if got, _ := aicScan32(sum32, sumSq32, sc.lnLen, sc.invLen, k, k+1, 1, float32(math.Inf(1)), -1); got != ref32(k) {
				t.Fatalf("trial %d: aicScan32 AIC(%d) = %v, want %v", trial, k, got, ref32(k))
			}
		}
		for _, stride := range []int{1, 4} {
			if got, want := sc.OnsetStrided(x, margin, stride), stridedRef(ref64, n, margin, stride); got != want {
				t.Fatalf("trial %d stride %d: OnsetStrided = %d, closure form %d", trial, stride, got, want)
			}
			if got, want := sc.Onset32Strided(x32, margin, stride), stridedRef(ref32, n, margin, stride); got != want {
				t.Fatalf("trial %d stride %d: Onset32Strided = %d, closure form %d", trial, stride, got, want)
			}
		}
	}
}

// TestAICScan32LogEdges drives aicScan32's inlined log with chosen
// arguments: with zero sums, the segment statistics are S1 = sumSq[1] and
// S2 = sumSq[2] − sumSq[1], so both logs see v exactly. The arguments sit
// on and around the range reduction's √2 threshold, at powers of two, and
// at the 1e-30 floor.
func TestAICScan32LogEdges(t *testing.T) {
	var sc AICScratch
	sc.ensureLenTables(2)
	sum := []float64{0, 0, 0}
	vals := []float32{1e-30, 0.5, 1, 2, 1024, 3e20}
	for _, base := range []float32{1.4142135, 0.70710677, 2 * 1.4142135} {
		v := base
		for i := 0; i < 3; i++ {
			v = math.Nextafter32(v, 0)
		}
		for i := 0; i < 7; i++ {
			vals = append(vals, v)
			v = math.Nextafter32(v, 10)
		}
	}
	for _, v := range vals {
		sumSq := []float64{0, float64(v), 2 * float64(v)}
		got, _ := aicScan32(sum, sumSq, sc.lnLen, sc.invLen, 1, 2, 1, float32(math.Inf(1)), -1)
		if want := aicAt32Ref(sum, sumSq, sc.lnLen, sc.invLen)(1); got != want {
			t.Errorf("S = %v: aicScan32 AIC %v, closure form %v", v, got, want)
		}
	}
}

// TestAICSearchZeroAlloc pins the allocfree searches at run time: once the
// scratch has grown to the trace length, a pick allocates nothing.
func TestAICSearchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := burstTrace(rng, 3657, 1200, 0.05, 1)
	x32 := make([]float32, len(x))
	for i, v := range x {
		x32[i] = float32(v)
	}
	var sc AICScratch
	sc.OnsetStrided(x, 8, 4)
	sc.Onset32Strided(x32, 8, 4)
	if allocs := testing.AllocsPerRun(20, func() {
		sc.OnsetStrided(x, 8, 4)
		sc.Onset32Strided(x32, 8, 4)
	}); allocs != 0 {
		t.Errorf("warm AIC searches allocated %v times per run, want 0", allocs)
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
