package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxSpectrumDiff(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

// TestPlanMatchesFFTAllSizes checks that PlanFor sizes every length
// 2..4096 up to the next power of two, and that Transform zero-pads a short
// source: at lengths that are not powers of two the planned transform must
// match the O(n²) DFT of the zero-padded input, whatever dst held before.
func TestPlanMatchesFFTAllSizes(t *testing.T) {
	for n := 2; n <= 4096; n++ {
		if got := PlanFor(n).Size(); got != NextPow2(n) {
			t.Fatalf("n=%d: plan size %d, want %d", n, got, NextPow2(n))
		}
	}
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{3, 100, 1000, 1023} {
		x := randComplex(rng, n)
		plan := PlanFor(n)
		padded := make([]complex128, plan.Size())
		copy(padded, x)
		want := naiveDFT(padded)
		got := randComplex(rng, plan.Size()) // stale contents must not leak
		plan.Transform(got, x)
		if d := maxSpectrumDiff(got, want); d > 1e-7*float64(plan.Size()) {
			t.Fatalf("n=%d: planned FFT deviates from the zero-padded DFT by %g", n, d)
		}
	}
}

// TestPlanRoundTrip checks Transform → Inverse recovers the (zero-padded)
// input across all power-of-two sizes up to 4096.
func TestPlanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 2; n <= 4096; n <<= 1 {
		plan := NewPlan(n)
		x := randComplex(rng, n)
		buf := make([]complex128, n)
		copy(buf, x)
		plan.TransformInPlace(buf)
		plan.InverseInPlace(buf)
		for i := range x {
			if d := cmplx.Abs(buf[i] - x[i]); d > 1e-9 {
				t.Fatalf("n=%d: round-trip error %g at sample %d", n, d, i)
			}
		}
	}
}

// TestPlanMatchesNaiveDFT anchors the plan against the O(n²) definition at
// a few power-of-two sizes.
func TestPlanMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 8, 64, 256} {
		x := randComplex(rng, n)
		want := naiveDFT(x)
		got := make([]complex128, n)
		NewPlan(n).Transform(got, x)
		if d := maxSpectrumDiff(got, want); d > 1e-7*float64(n) {
			t.Fatalf("n=%d: planned FFT deviates from naive DFT by %g", n, d)
		}
	}
}

func TestNewPlanRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPlan(12) did not panic")
		}
	}()
	NewPlan(12)
}

// TestPlanZeroAlloc asserts the planned transforms never allocate after
// warm-up — the contract the per-worker gateway pipelines rely on.
func TestPlanZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	plan := PlanFor(1024)
	src := randComplex(rng, 1000) // exercises the zero-padding path too
	dst := make([]complex128, plan.Size())
	if allocs := testing.AllocsPerRun(100, func() {
		plan.Transform(dst, src)
	}); allocs != 0 {
		t.Errorf("Plan.Transform allocated %v times per run", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		plan.TransformInPlace(dst)
	}); allocs != 0 {
		t.Errorf("Plan.TransformInPlace allocated %v times per run", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		plan.InverseInPlace(dst)
	}); allocs != 0 {
		t.Errorf("Plan.InverseInPlace allocated %v times per run", allocs)
	}
}

// TestSpectrogramPlanMatchesSpectrogram checks the planned spectrogram
// against the one-shot API, including row reuse across calls.
func TestSpectrogramPlanMatchesSpectrogram(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randComplex(rng, 1500)
	w := KaiserWindow(128, 8)
	want := Spectrogram(x, w, 16)
	sp := NewSpectrogramPlan(w, 16)
	var got [][]float64
	for pass := 0; pass < 2; pass++ { // second pass reuses rows
		got = sp.Compute(x, got)
	}
	if len(got) != len(want) {
		t.Fatalf("frames: got %d, want %d", len(got), len(want))
	}
	for f := range want {
		for b := range want[f] {
			if d := math.Abs(got[f][b] - want[f][b]); d > 1e-9*(1+want[f][b]) {
				t.Fatalf("frame %d bin %d: got %g, want %g", f, b, got[f][b], want[f][b])
			}
		}
	}
	if n := sp.Frames(len(x)); n != len(want) {
		t.Fatalf("Frames(%d) = %d, want %d", len(x), n, len(want))
	}
}

// TestPeakBinSq anchors the squared-magnitude scanner against a direct
// magnitude scan.
func TestPeakBinSq(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	spec := randComplex(rng, 257)
	bin, magSq := PeakBinSq(spec)
	wantBin, wantMag := 0, 0.0
	for i, v := range spec {
		if m := cmplx.Abs(v); m > wantMag {
			wantMag = m
			wantBin = i
		}
	}
	if bin != wantBin {
		t.Fatalf("bins disagree: %d vs %d", bin, wantBin)
	}
	if d := math.Abs(wantMag*wantMag - magSq); d > 1e-9*(1+magSq) {
		t.Fatalf("magnitude mismatch: |X|²=%g, want %g", magSq, wantMag*wantMag)
	}
}

// TestDechirpDecimatedPreservesTone drives the boxcar-decimated dechirp
// path the coarse scans run (DechirpDecimateInto, then a plan transform of
// the n/d-point result) with a synthetic chirp+tone whose dechirped product
// is a pure tone landing exactly on both the full-rate and the decimated
// bin grid, and checks (a) the decimated peak sits at the same frequency,
// (b) the droop-compensated peak power matches the full-rate transform's —
// i.e. the decimation loses none of the despreading gain.
func TestDechirpDecimatedPreservesTone(t *testing.T) {
	const n = 2048
	const d = 4
	const rate = 1e6
	phase := make([]float64, n)
	for i := range phase {
		ti := float64(i) / rate
		phase[i] = 2 * math.Pi * 3e4 * ti * ti * rate / 100 // arbitrary quadratic
	}
	// Tone on both grids: full nfft = 2048, decimated nfft = 512, and the
	// bin widths in Hz coincide (rate/2048 = (rate/4)/512), so the peak
	// lands on the same bin index in both spectra.
	const bin = 40
	f0 := float64(bin) / 2048 // cycles per full-rate sample
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, phase[i]+2*math.Pi*f0*float64(i)))
	}
	var s DechirpScratch[int]
	s.Init(1, n, rate, 1, phase)
	full := s.Dechirp(x)
	fullBin, fullSq := PeakBinSq(full)
	if fullBin != bin {
		t.Fatalf("full-rate peak at bin %d, want %d", fullBin, bin)
	}
	plan := PlanFor(n / d)
	dec := make([]complex128, plan.Size())
	decimate := func() {
		s.DechirpDecimateInto(dec, x, d)
		plan.TransformInPlace(dec)
	}
	decimate()
	decBin, decSq := PeakBinSq(dec)
	if decBin != bin {
		t.Fatalf("decimated peak at bin %d, want %d", decBin, bin)
	}
	droop := BoxcarDroopSq(d, f0)
	if ratio := decSq / droop / fullSq; math.Abs(ratio-1) > 0.01 {
		t.Errorf("droop-compensated decimated peak power off by %.3f× (droop %.4f)", ratio, droop)
	}
	if allocs := testing.AllocsPerRun(20, decimate); allocs != 0 {
		t.Errorf("decimated dechirp allocated %v times per run in steady state", allocs)
	}
	// d=1 degenerates to the full-rate dechirp.
	und := s.DechirpDecimateInto(make([]complex128, n), x, 1)
	PlanFor(n).TransformInPlace(und)
	if diff := maxSpectrumDiff(und, s.Dechirp(x)); diff != 0 {
		t.Errorf("d=1 spectrum deviates from Dechirp by %g", diff)
	}
}

// TestDechirpDecimateIntoBitIdentical pins the decimation kernel to the
// plain per-sample loop it replaced: one accumulator per group, summed in
// sample order, so every output is bit-identical. 2457 (the SF7 chirp at
// 2.4 Msps) leaves a remainder for every d > 1; 2048 leaves none.
func TestDechirpDecimateIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{2048, 2457} {
		phase := make([]float64, n)
		for i := range phase {
			phase[i] = 1e-4 * float64(i) * float64(i)
		}
		var s DechirpScratch[int]
		s.Init(1, n, 2.4e6, 1, phase)
		x := randComplex(rng, n+5)
		for _, d := range []int{1, 2, 4, 8, 16} {
			m := n / d
			want := make([]complex128, m)
			for i := 0; i < m; i++ {
				var acc complex128
				for r := 0; r < d; r++ {
					acc += x[i*d+r] * s.conj[i*d+r]
				}
				want[i] = acc
			}
			dst := make([]complex128, m+1)
			got := s.DechirpDecimateInto(dst, x, d)
			if len(got) != m {
				t.Fatalf("n=%d d=%d: %d outputs, want %d", n, d, len(got), m)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d d=%d: output %d is %v, per-sample loop %v", n, d, i, got[i], want[i])
				}
			}
			if dst[m] != 0 {
				t.Errorf("n=%d d=%d: wrote past n/d outputs", n, d)
			}
		}
	}
}

func TestBoxcarDroopSq(t *testing.T) {
	if g := BoxcarDroopSq(1, 0.3); g != 1 {
		t.Errorf("d=1 droop = %g, want 1", g)
	}
	if g := BoxcarDroopSq(4, 0); g != 1 {
		t.Errorf("DC droop = %g, want 1", g)
	}
	// Analytic check at f=1/8, d=4: |sin(π/2)/(4·sin(π/8))|².
	want := math.Pow(1/(4*math.Sin(math.Pi/8)), 2)
	if g := BoxcarDroopSq(4, 0.125); math.Abs(g-want) > 1e-12 {
		t.Errorf("droop(4, 1/8) = %g, want %g", g, want)
	}
	// Monotone decay toward the first null within the decimated band.
	if !(BoxcarDroopSq(4, 0.05) > BoxcarDroopSq(4, 0.1)) {
		t.Error("droop must decay with |f|")
	}
}

// TestOverlapSaveMatchesDirectFIR checks the FFT overlap-save convolution
// against the direct form across sizes straddling the switch-over, at both
// edges and interior.
func TestOverlapSaveMatchesDirectFIR(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1040, 4096, 9000, 20000} {
		x := randComplex(rng, n)
		f := LowPassFIR(100e3, 2.4e6, 129)
		got := f.Apply(x) // overlap-save path (n >= 8m)
		direct := &FIRFilter{Taps: f.Taps}
		want := make([]complex128, n)
		m := len(f.Taps)
		delay := m / 2
		for i := 0; i < n; i++ {
			var acc complex128
			for j := 0; j < m; j++ {
				k := i + delay - j
				if k < 0 || k >= n {
					continue
				}
				acc += x[k] * complex(direct.Taps[j], 0)
			}
			want[i] = acc
		}
		worst := 0.0
		for i := range want {
			if d := cmplx.Abs(got[i] - want[i]); d > worst {
				worst = d
			}
		}
		if worst > 1e-10 {
			t.Errorf("n=%d: overlap-save deviates from direct by %g", n, worst)
		}
	}
}

// TestTransformManyBitIdentical pins the batched entry point against
// per-block TransformInPlace: same plan, same input, bit-for-bit equal
// output for both kernel radices, plus the length-contract panic and the
// empty-slab no-op.
func TestTransformManyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{64, 128, 1024} { // radix-4, radix-2, radix-4
		plan := NewPlan(n)
		const k = 5
		slab := randComplex(rng, k*n)
		want := make([]complex128, k*n)
		copy(want, slab)
		for b := 0; b < k; b++ {
			plan.TransformInPlace(want[b*n : (b+1)*n])
		}
		plan.TransformMany(slab)
		for i := range slab {
			if slab[i] != want[i] {
				t.Fatalf("n=%d: block output differs at %d: %v != %v", n, i, slab[i], want[i])
			}
		}
		plan.TransformMany(slab[:0]) // empty slab is a no-op
	}

	defer func() {
		if recover() == nil {
			t.Fatal("TransformMany with a ragged slab did not panic")
		}
	}()
	NewPlan(64).TransformMany(make([]complex128, 96))
}

func TestTransformManyZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	plan := PlanFor(256)
	slab := randComplex(rng, 8*plan.Size())
	if allocs := testing.AllocsPerRun(50, func() {
		plan.TransformMany(slab)
	}); allocs != 0 {
		t.Errorf("Plan.TransformMany allocated %v times per run", allocs)
	}
}
