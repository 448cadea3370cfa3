package dsp

import (
	"math"
	"math/bits"
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

// TestDechirpDecimateIntoBitIdentical pins the decimation kernel, and its
// unrolled d = 4 path, to the plain per-sample loop it replaced: one
// accumulator per group, summed from zero in sample order, so every output
// is bit-identical (math.Float64bits). 2457 (the SF7 chirp at 2.4 Msps)
// leaves a remainder for every d > 1; 2048 leaves none. The special case
// feeds signed zeros and subnormals through a template with exact zero
// components, and leads with groups of −0 products, whose sum is +0 only
// when it starts from zero.
func TestDechirpDecimateIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{2048, 2457} {
		phase := make([]float64, n)
		for i := range phase {
			phase[i] = 1e-4 * float64(i) * float64(i)
		}
		for _, special := range []bool{false, true} {
			var s DechirpScratch[int]
			s.Init(1, n, 2.4e6, 1, phase)
			x := randComplex(rng, n+5)
			if special {
				x = specialComplex(rng, n+5)
				copy(s.conj, specialComplex(rng, n))
				// A group of four (−0)·1 products sums to +0 from a zero
				// start and to −0 without one.
				for i := 0; i < 16; i++ {
					x[i], s.conj[i] = complex(math.Copysign(0, -1), 0), 1
				}
			}
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
					if !sameBits(got[i], want[i]) {
						t.Fatalf("n=%d d=%d special=%v: output %d is %v, per-sample loop %v", n, d, special, i, got[i], want[i])
					}
				}
				if dst[m] != 0 {
					t.Errorf("n=%d d=%d: wrote past n/d outputs", n, d)
				}
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

// TestTransformOutOfPlaceBitIdentical pins the out-of-place entry point,
// whose radix-4 path fuses the permutation and zero padding into the first
// stage, against TransformInPlace on a zero-padded copy: same plan, same
// input, bit-for-bit equal output for both kernel radices, full-length and
// short sources, plus the length-contract panics.
func TestTransformOutOfPlaceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{64, 128, 1024} { // radix-4, radix-2, radix-4
		plan := NewPlan(n)
		for _, l := range []int{0, 1, n / 4, n/2 + 3, n - 1, n} {
			src := randComplex(rng, l)
			want := make([]complex128, n)
			copy(want, src)
			plan.TransformInPlace(want)
			got := randComplex(rng, n) // stale contents must not leak
			plan.Transform(got, src)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("n=%d len(src)=%d: bin %d is %v, in place %v", n, l, i, got[i], want[i])
				}
			}
		}
	}
	for name, call := range map[string]func(){
		"long source":  func() { NewPlan(64).Transform(make([]complex128, 64), make([]complex128, 65)) },
		"short dst":    func() { NewPlan(64).Transform(make([]complex128, 63), nil) },
		"short buffer": func() { NewPlan(64).TransformInPlace(make([]complex128, 96)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// TestTransformZeroAlloc pins the fused gather, the packed-table stages and
// the scratch paths that feed them at zero allocations, at the gateway's
// shapes: the coarse scan's 614 decimated samples into 1,024 bins and the
// anchor FFT's 2,457 samples into 4,096, plus a radix-2 size.
func TestTransformZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, c := range []struct{ l, n int }{{614, 1024}, {1024, 1024}, {2457, 4096}, {300, 512}} {
		plan := PlanFor(c.n)
		src := randComplex(rng, c.l)
		dst := make([]complex128, plan.Size())
		if allocs := testing.AllocsPerRun(50, func() {
			plan.Transform(dst, src)
		}); allocs != 0 {
			t.Errorf("Plan.Transform(%d into %d) allocated %v times per run", c.l, c.n, allocs)
		}
	}
	const n = 2457
	phase := make([]float64, n)
	for i := range phase {
		phase[i] = 1e-4 * float64(i) * float64(i)
	}
	var s DechirpScratch[int]
	s.Init(1, n, 2.4e6, 1, phase)
	x := randComplex(rng, n)
	dec := make([]complex128, n/4)
	if allocs := testing.AllocsPerRun(50, func() {
		s.Dechirp(x)
		s.DechirpDecimateInto(dec, x, 4)
	}); allocs != 0 {
		t.Errorf("Dechirp and DechirpDecimateInto allocated %v times per run", allocs)
	}
}

// sameBits reports whether two complex values are bit-identical, counting
// any two NaNs in the same component as equal: a NaN's sign and payload
// are not part of any result.
func sameBits(a, b complex128) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	return same(real(a), real(b)) && same(imag(a), imag(b))
}

// oracleTransform is the textbook planned FFT, the bit-identity oracle of
// the packed-table kernels and the fused gather: copy src into an n-long
// buffer and zero-pad, swap into digit-reversed (radix-4) or bit-reversed
// (radix-2) order, then run every stage from one linear twiddle table read
// at a per-stage stride. The inverse is normalized as InverseInPlace
// normalizes.
func oracleTransform(n int, src []complex128, inverse bool) []complex128 {
	x := make([]complex128, n)
	copy(x, src)
	if n > 1 {
		oracleStages(x, inverse)
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
	return x
}

// oracleStages permutes x in place and runs the stage loop.
func oracleStages(x []complex128, inverse bool) {
	n := len(x)
	log2 := bits.Len(uint(n)) - 1
	radix4 := n >= 4 && log2%2 == 0
	perm := make([]int, n)
	for i := range perm {
		if radix4 {
			for j := 0; j < log2; j += 2 {
				perm[i] = perm[i]<<2 | (i>>j)&3
			}
		} else {
			perm[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - log2))
		}
	}
	for i, j := range perm {
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	twLen := n / 2
	if radix4 {
		twLen = 3 * n / 4
	}
	tw := make([]complex128, twLen)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, s)
		if inverse {
			tw[k] = complex(c, -s)
		}
	}
	if radix4 {
		oracleRadix4(x, tw, inverse)
	} else {
		for size := 2; size <= n; size <<= 1 {
			half := size >> 1
			stride := n / size
			for start := 0; start < n; start += size {
				ti := 0
				for k := start; k < start+half; k++ {
					a := x[k]
					b := x[k+half] * tw[ti]
					x[k] = a + b
					x[k+half] = a - b
					ti += stride
				}
			}
		}
	}
}

// oracleRadix4 is the textbook radix-4 decimation-in-time stage loop on
// digit-reversed input, the oracle of butterfly4 and its callers.
func oracleRadix4(x []complex128, tw []complex128, inverse bool) {
	n := len(x)
	for size := 4; size <= n; size <<= 2 {
		quarter := size >> 2
		stride := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < quarter; k++ {
				i0 := start + k
				i1 := i0 + quarter
				i2 := i1 + quarter
				i3 := i2 + quarter
				ti := k * stride
				a := x[i0]
				b := x[i1] * tw[ti]
				c := x[i2] * tw[2*ti]
				d := x[i3] * tw[3*ti]
				t0 := a + c
				t1 := a - c
				t2 := b + d
				t3 := b - d
				// jt3 = −j·t3 for the forward transform, +j·t3 inverse.
				var jt3 complex128
				if inverse {
					jt3 = complex(-imag(t3), real(t3))
				} else {
					jt3 = complex(imag(t3), -real(t3))
				}
				x[i0] = t0 + t2
				x[i1] = t1 + jt3
				x[i2] = t0 - t2
				x[i3] = t1 - jt3
			}
		}
	}
}

// specialComplex draws values that stress the rounding of signed zeros and
// subnormals: ±0, the smallest subnormals, a subnormal near the normal
// boundary, and ordinary values, in random combinations.
func specialComplex(rng *rand.Rand, n int) []complex128 {
	vals := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -3e-320, 1, -1, 2.5}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))])
	}
	return x
}

// signedZeros draws ±0 in both components. Multiplying by W^0 = 1 − 0j
// turns −0 into +0, so these inputs show whether a kernel still multiplies
// by every table twiddle, W^0 included, as the textbook loop does.
func signedZeros(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Copysign(0, rng.Float64()-0.5), math.Copysign(0, rng.Float64()-0.5))
	}
	return x
}

// oracleSrcLens returns the source lengths the oracle test runs at plan
// size n: every length up to 1,024, and past that the quarter boundaries
// where the gather's zero reads start, plus the anchor FFT's 2,457.
func oracleSrcLens(n int) []int {
	if n <= 1024 {
		lens := make([]int, n+1)
		for l := range lens {
			lens[l] = l
		}
		return lens
	}
	lens := []int{0, 1, 2, 3, 5, n - 1, n}
	for r := 1; r < 4; r++ {
		lens = append(lens, r*n/4-1, r*n/4, r*n/4+1)
	}
	if n == 4096 {
		lens = append(lens, 2457)
	}
	return lens
}

// TestTransformMatchesOracle pins every planned path — the fused gather of
// Transform, the in-place permutation with the W^0 first stage, the packed
// twiddle stages, and the inverse with its y1/y3 swap — to the textbook
// stage loop bit for bit (math.Float64bits), at every power-of-two size
// from 1 to 16,384 and every source length oracleSrcLens picks (including
// 614 into 1,024 and 2,457 into 4,096). Inputs are signed zeros alone; a
// mix of signed zeros, subnormals and ordinary values; a Gaussian set
// seeded with NaN and ±Inf, whose non-finite outputs must land in the same
// bins; and plain Gaussian values.
func TestTransformMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	inputs := []struct {
		kind string
		gen  func(int) []complex128
	}{
		{"signed zeros", func(n int) []complex128 { return signedZeros(rng, n) }},
		{"special", func(n int) []complex128 { return specialComplex(rng, n) }},
		{"nonfinite", func(n int) []complex128 {
			x := randComplex(rng, n)
			for _, v := range []complex128{complex(math.NaN(), 0), complex(0, math.Inf(1)), complex(math.Inf(-1), 1)} {
				if n > 0 {
					x[rng.Intn(n)] = v
				}
			}
			return x
		}},
		{"gaussian", func(n int) []complex128 { return randComplex(rng, n) }},
	}
	check := func(what string, n, l int, got, want []complex128) {
		t.Helper()
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s n=%d len(src)=%d: bin %d is %v, oracle %v", what, n, l, i, got[i], want[i])
			}
		}
	}
	for n := 1; n <= 16384; n <<= 1 {
		plan := NewPlan(n)
		dst := make([]complex128, n)
		buf := make([]complex128, n)
		for _, in := range inputs {
			kind := in.kind
			for _, l := range oracleSrcLens(n) {
				src := in.gen(l)
				want := oracleTransform(n, src, false)
				plan.Transform(dst, src)
				check(kind+" Transform", n, l, dst, want)
				copy(buf, src)
				clear(buf[l:])
				plan.Transform(buf, buf[:l])
				check(kind+" aliased Transform", n, l, buf, want)
				copy(buf, src)
				clear(buf[l:])
				plan.TransformInPlace(buf)
				check(kind+" TransformInPlace", n, l, buf, want)
				want = oracleTransform(n, src, true)
				copy(buf, src)
				clear(buf[l:])
				plan.InverseInPlace(buf)
				check(kind+" InverseInPlace", n, l, buf, want)
			}
		}
	}
}
