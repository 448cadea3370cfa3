package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Plan holds the precomputed state for FFTs of one fixed power-of-two size:
// the input permutation and the per-stage twiddle factors. Building a Plan
// costs O(n); every transform through it then runs without allocating and
// without recomputing trigonometry, which is what makes the per-uplink
// sliding-window scans of package core cheap.
//
// Sizes whose log2 is even (4, 16, 64, …, 4096, 16384) run a radix-4
// kernel — one complex multiply per four outputs fewer than radix-2, ~25 %
// fewer multiplies overall — which covers every hot gateway size (the
// chirp-window 4096, the decimated-scan 1024 and the spectrogram 256).
// Odd-log2 sizes fall back to the radix-2 kernel.
//
// The radix-4 kernel reads its twiddles from tables packed stage by stage,
// one W^k, W^2k, W^3k triple per butterfly, and runs the first stage, whose
// twiddles are all W^0, as a loop of its own. Out of place, Transform fuses
// the input permutation into that first stage: it reads the source through
// the digit reversal, as zero past its end, so a zero-padded transform
// needs no copy, no zero fill and no swap pass. Every butterfly performs
// the floating-point operations of the textbook stage loop in the same
// order, so each output is bit-identical to it (the tests keep that loop
// as the oracle).
//
// A Plan is immutable after construction and safe for concurrent use by
// multiple goroutines — only the caller-supplied buffers are mutated. The
// scratch buffers a caller pairs with a Plan (see the consumers in package
// core) are NOT shareable: one scratch set per goroutine.
type Plan struct {
	n      int
	radix4 bool
	perm   []int32 // bit-reversal (radix-2) or base-4 digit-reversal targets
	// Radix-2 plans: exp(∓2πik/n) for k < n/2, read at a per-stage stride.
	fwd []complex128
	inv []complex128
	// Radix-4 plans: the first stage's W^0, then the later stages' twiddle
	// triples, stage after stage in size order, one per butterfly.
	w0Fwd, w0Inv complex128
	fwd4, inv4   []twiddle3
}

// twiddle3 holds the twiddles of one radix-4 butterfly: W^k, W^2k, W^3k.
type twiddle3 struct{ w1, w2, w3 complex128 }

// NewPlan builds a plan for n-point transforms. n must be a positive power
// of two.
func NewPlan(n int) *Plan {
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: NewPlan size %d is not a power of two", n))
	}
	log2 := bits.Len(uint(n)) - 1
	p := &Plan{n: n, radix4: n >= 4 && log2%2 == 0}
	p.perm = make([]int32, n)
	if p.radix4 {
		// Base-4 digit reversal: the radix-4 DIT stages consume the input
		// with its base-4 digits reversed, exactly as radix-2 needs bit
		// reversal.
		for i := 0; i < n; i++ {
			r := 0
			for j := 0; j < log2; j += 2 {
				r = r<<2 | (i>>j)&3
			}
			p.perm[i] = int32(r)
		}
		p.w0Fwd, p.w0Inv = twiddle(0, n)
		p.fwd4 = make([]twiddle3, 0, (n-4)/3)
		p.inv4 = make([]twiddle3, 0, (n-4)/3)
		// The stage of size s (16 ≤ s ≤ n) has s/4 butterflies per block;
		// butterfly k reads exponents k·n/s, 2k·n/s and 3k·n/s.
		for quarter := 4; quarter <= n/4; quarter <<= 2 {
			stride := n / (4 * quarter)
			for k := 0; k < quarter; k++ {
				f1, i1 := twiddle(k*stride, n)
				f2, i2 := twiddle(2*k*stride, n)
				f3, i3 := twiddle(3*k*stride, n)
				p.fwd4 = append(p.fwd4, twiddle3{f1, f2, f3})
				p.inv4 = append(p.inv4, twiddle3{i1, i2, i3})
			}
		}
		return p
	}
	if n > 1 {
		shift := bits.UintSize - uint(bits.Len(uint(n-1)))
		for i := 0; i < n; i++ {
			p.perm[i] = int32(bits.Reverse(uint(i)) >> shift)
		}
	}
	p.fwd = make([]complex128, n/2)
	p.inv = make([]complex128, n/2)
	for k := range p.fwd {
		p.fwd[k], p.inv[k] = twiddle(k, n)
	}
	return p
}

// twiddle returns the forward twiddle exp(-2πik/n) and its inverse.
func twiddle(k, n int) (fwd, inv complex128) {
	s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
	return complex(c, s), complex(c, -s)
}

// Size returns the transform length the plan was built for.
func (p *Plan) Size() int { return p.n }

// Transform computes the forward DFT of src into dst without allocating.
// len(dst) must equal the plan size; src may be shorter (it is zero-padded)
// but not longer. dst and src may alias only if they are the same slice.
//
//softlora:allocfree
func (p *Plan) Transform(dst, src []complex128) {
	p.checkLen(dst)
	if len(src) > p.n {
		panic(fmt.Sprintf("dsp: plan size %d, source length %d", p.n, len(src)))
	}
	if p.radix4 && (len(src) == 0 || &dst[0] != &src[0]) {
		p.gatherFirstStage(dst, src)
		radix4Stages(dst, p.fwd4, false)
		return
	}
	copy(dst, src) // moves nothing when they alias
	clear(dst[len(src):])
	p.run(dst, false)
}

// TransformInPlace computes the forward DFT of buf in place. len(buf) must
// equal the plan size.
//
//softlora:allocfree
func (p *Plan) TransformInPlace(buf []complex128) {
	p.checkLen(buf)
	p.run(buf, false)
}

// InverseInPlace computes the normalized inverse DFT of buf in place.
// len(buf) must equal the plan size.
func (p *Plan) InverseInPlace(buf []complex128) {
	p.checkLen(buf)
	p.run(buf, true)
	p.normalize(buf)
}

func (p *Plan) checkLen(buf []complex128) {
	if len(buf) != p.n {
		panic(fmt.Sprintf("dsp: plan size %d, buffer length %d", p.n, len(buf)))
	}
}

func (p *Plan) normalize(buf []complex128) {
	inv := complex(1/float64(p.n), 0)
	for i := range buf {
		buf[i] *= inv
	}
}

// run permutes x in place and executes the butterfly stages with table
// twiddles. The table lookup replaces the running product w *= wBase of the
// unplanned FFT, which both removes the per-butterfly complex multiply and
// stops rounding error from accumulating across a stage. Both permutations
// (bit reversal and base-4 digit reversal) are involutions, so the in-place
// swap loop needs no scratch.
//
//softlora:allocfree
func (p *Plan) run(x []complex128, inverse bool) {
	n := p.n
	if n <= 1 {
		return
	}
	for i, pi := range p.perm {
		if j := int(pi); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	if p.radix4 {
		w0, tw := p.w0Fwd, p.fwd4
		if inverse {
			w0, tw = p.w0Inv, p.inv4
		}
		radix4FirstStage(x, w0, inverse)
		radix4Stages(x, tw, inverse)
		return
	}
	tw := p.fwd
	if inverse {
		tw = p.inv
	}
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

// butterfly4 is the radix-4 decimation-in-time butterfly. It combines four
// quarter-size DFT outputs a, b·W^k, c·W^2k, d·W^3k (the caller applies the
// twiddles) into
//
//	X[k]      = t0 + t2        t0 = a + c    t2 = b + d
//	X[k+q]    = t1 − j·t3      t1 = a − c    t3 = b − d
//	X[k+2q]   = t0 − t2
//	X[k+3q]   = t1 + j·t3
//
// The −j factor is the quarter-turn twiddle W^{n/4}; the inverse transform
// conjugates it to +j, so its X[k+q] is t1 + j·t3 = t1 − (−j·t3), which
// rounds exactly as this function's X[k+3q], and vice versa: the inverse
// takes y1 and y3 swapped, with its conjugated twiddles applied.
func butterfly4(a, b, c, d complex128) (y0, y1, y2, y3 complex128) {
	t0 := a + c
	t1 := a - c
	t2 := b + d
	t3 := b - d
	jt3 := complex(imag(t3), -real(t3)) // −j·t3
	return t0 + t2, t1 + jt3, t0 - t2, t1 - jt3
}

// radix4FirstStage runs the size-4 stage on digit-reversed x in place. Every
// twiddle of this stage is W^0, so w0 stays in a register instead of being
// read from a table; it is still multiplied in, exactly as the table
// twiddle was, so signed zeros and non-finite inputs round the same way.
//
//softlora:allocfree
func radix4FirstStage(x []complex128, w0 complex128, inverse bool) {
	for len(x) >= 4 {
		blk := x[:4:4]
		y0, y1, y2, y3 := butterfly4(blk[0], blk[1]*w0, blk[2]*w0, blk[3]*w0)
		if inverse {
			y1, y3 = y3, y1
		}
		blk[0], blk[1], blk[2], blk[3] = y0, y1, y2, y3
		x = x[4:]
	}
}

// gatherFirstStage is the out-of-place forward size-4 stage fused with the
// digit-reversal permutation and the zero padding: it writes into dst what
// copying src into dst, zero-filling the tail, swapping into digit-reversed
// order and running radix4FirstStage would leave there.
//
// The block at dst[4j:4j+4] reads the inputs at p, p+q, p+2q and p+3q,
// where q = n/4 and p = perm[4j] < q; since the permutation is an
// involution, dst block perm[p] is the one input position p feeds. So the
// pass walks p upward, reading the four quarters of src in order and
// writing one whole block per step. Positions at or past len(src) read as
// zero. Once src ends inside a quarter it stays ended for every larger p,
// so the loop that reads four full quarters runs branch-free, and the tail
// loop's bounds tests change outcome at most once each.
//
//softlora:allocfree
func (p *Plan) gatherFirstStage(dst, src []complex128) {
	q := p.n >> 2
	w0 := p.w0Fwd
	perm := p.perm[:q]
	s0, s1 := srcQuarter(src, 0, q), srcQuarter(src, 1, q)
	s2, s3 := srcQuarter(src, 2, q), srcQuarter(src, 3, q)
	full := len(s3) // positions where all four quarters have data
	a0, a1, a2, a3 := s0[:full], s1[:full], s2[:full], s3[:full]
	for i, o := range perm[:full] {
		blk := (*[4]complex128)(dst[o:])
		blk[0], blk[1], blk[2], blk[3] = butterfly4(a0[i], a1[i]*w0, a2[i]*w0, a3[i]*w0)
	}
	for i := full; i < q; i++ {
		var a, b, c, d complex128 // d stays zero: src ended before quarter 3 did
		if i < len(s0) {
			a = s0[i]
		}
		if i < len(s1) {
			b = s1[i]
		}
		if i < len(s2) {
			c = s2[i]
		}
		blk := (*[4]complex128)(dst[perm[i]:])
		blk[0], blk[1], blk[2], blk[3] = butterfly4(a, b*w0, c*w0, d*w0)
	}
}

// srcQuarter returns the part of src that falls in [r·q, (r+1)·q).
func srcQuarter(src []complex128, r, q int) []complex128 {
	return src[min(r*q, len(src)):min((r+1)*q, len(src))]
}

// radix4Stages runs the radix-4 stages of size 16 … len(x) in place on the
// output of the first stage, reading tw, the packed triples of fwd4 or
// inv4. Each block's four quarters are re-sliced once so the butterfly
// loop indexes them, and the stage's triples, without bounds checks.
//
//softlora:allocfree
func radix4Stages(x []complex128, tw []twiddle3, inverse bool) {
	n := len(x)
	for quarter := 4; quarter <= n/4; quarter <<= 2 {
		size := 4 * quarter
		stw := tw[:quarter]
		tw = tw[quarter:]
		for start := 0; start+size <= n; start += size {
			x0 := x[start : start+quarter]
			x1 := x[start+quarter : start+2*quarter]
			x2 := x[start+2*quarter : start+3*quarter]
			x3 := x[start+3*quarter : start+size]
			// The inverse's y1 and y3 trade places (see butterfly4).
			o1, o3 := x1, x3
			if inverse {
				o1, o3 = x3, x1
			}
			x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
			o1, o3 = o1[:len(x0)], o3[:len(x0)]
			w := stw[:len(x0)]
			for k, a := range x0 {
				t := &w[k]
				y0, y1, y2, y3 := butterfly4(a, x1[k]*t.w1, x2[k]*t.w2, x3[k]*t.w3)
				x0[k], o1[k], x2[k], o3[k] = y0, y1, y2, y3
			}
		}
	}
}

// planCache shares immutable plans across the process. Plans are read-only,
// so handing the same *Plan to many goroutines is safe; per-goroutine state
// lives in the callers' scratch buffers, never in the plan.
var planCache sync.Map // int -> *Plan

// PlanFor returns a process-cached plan for transforms of length NextPow2(n).
// The returned plan is shared: treat it as read-only.
func PlanFor(n int) *Plan {
	size := NextPow2(n)
	if v, ok := planCache.Load(size); ok {
		return v.(*Plan)
	}
	v, _ := planCache.LoadOrStore(size, NewPlan(size))
	return v.(*Plan)
}

// DechirpScratch is the shared scratch shape behind the dechirping
// detectors, estimators and the demodulator: a conjugate chirp template
// with a padded FFT plan and work buffer, invalidated when the chirp
// geometry (length, sample rate, or the caller's comparable key — channel
// params) changes. One instance per goroutine.
type DechirpScratch[K comparable] struct {
	n     int
	rate  float64
	key   K
	conj  []complex128 // exp(-j·templatePhase[i])
	plan  *Plan
	stage []complex128 // dechirped window, template-sized
	buf   []complex128 // plan-sized FFT buffer
}

// Stale reports whether the scratch must be rebuilt for this geometry.
// Callers check it first so template phases are only computed (and
// allocated) on an actual rebuild, keeping the steady state alloc-free.
func (s *DechirpScratch[K]) Stale(key K, n int, rate float64) bool {
	return s.n != n || s.rate != rate || s.key != key
}

// Init rebuilds the template exp(-j·phase[i]) and sizes the FFT plan and
// buffers for pad·n-point transforms. pad 0 builds the template alone, for
// callers that only decimate (DechirpDecimateInto) and never call Dechirp.
func (s *DechirpScratch[K]) Init(key K, n int, rate float64, pad int, phase []float64) {
	if cap(s.conj) < n {
		s.conj = make([]complex128, n)
	}
	s.conj = s.conj[:n]
	for i, p := range phase[:n] {
		sn, c := math.Sincos(-p)
		s.conj[i] = complex(c, sn)
	}
	s.n, s.rate, s.key = n, rate, key
	if pad == 0 {
		s.plan = nil
		return
	}
	s.plan = PlanFor(pad * n)
	if cap(s.stage) < n {
		s.stage = make([]complex128, n)
	}
	s.stage = s.stage[:n]
	if cap(s.buf) < s.plan.Size() {
		s.buf = make([]complex128, s.plan.Size())
	}
	s.buf = s.buf[:s.plan.Size()]
}

// Size returns the scratch's FFT length (0 before Init, or after Init with
// pad 0).
func (s *DechirpScratch[K]) Size() int {
	if s.plan == nil {
		return 0
	}
	return s.plan.Size()
}

// Dechirp multiplies seg (length <= template) by the template and returns
// the zero-padded spectrum of the product. The returned slice is the
// scratch buffer: it is overwritten by the next call.
//
//softlora:allocfree
func (s *DechirpScratch[K]) Dechirp(seg []complex128) []complex128 {
	stage := s.stage[:len(seg)]
	for i, v := range seg {
		stage[i] = v * s.conj[i]
	}
	s.plan.Transform(s.buf, stage)
	return s.buf
}

// DechirpDecimateInto dechirps seg at full rate against the template and
// sums adjacent groups of d samples (boxcar decimation) into dst, returning
// dst[:n/d] without transforming. Unlike plain subsampling, the boxcar
// keeps every sample in the coherent sum, so an n/d-point transform of the
// result preserves the despreading gain of the full window; the price is
// the boxcar's sinc-shaped droop over the decimated band (compensate per
// bin with BoxcarDroopSq). That spectrum covers ±rate/(2d), so d must leave
// the dechirped tones inside that band. Its callers transform the result
// out of place: the coarse onset scan into a spectrum buffer, the FB
// estimator keeping the time series for its zoom refinement. dst must have
// capacity ≥ n/d; the last n mod d samples of the template window are
// dropped.
//
// Every output sums its group's products one by one from zero, in sample
// order. The coarse onset scan's factor 4 runs an unrolled loop that adds
// the four products in that same order.
//
//softlora:allocfree
func (s *DechirpScratch[K]) DechirpDecimateInto(dst []complex128, seg []complex128, d int) []complex128 {
	m := s.n / d
	dst = dst[:m]
	seg = seg[:m*d]
	conj := s.conj[:len(seg)]
	if d == 4 {
		for i := range dst {
			blk, tpl := seg[:4:4], conj[:4:4]
			var acc complex128
			acc += blk[0] * tpl[0]
			acc += blk[1] * tpl[1]
			acc += blk[2] * tpl[2]
			acc += blk[3] * tpl[3]
			dst[i] = acc
			seg, conj = seg[4:], conj[4:]
		}
		return dst
	}
	for i := range dst {
		// Re-slicing once per group lets the inner loop run without
		// per-sample bounds checks.
		blk, tpl := seg[i*d:i*d+d], conj[i*d:i*d+d]
		tpl = tpl[:len(blk)]
		var acc complex128
		for r, v := range blk {
			acc += v * tpl[r]
		}
		dst[i] = acc
	}
	return dst
}

// SpectrogramPlan computes short-time Fourier transform power spectrograms
// repeatedly with one window function and one cached FFT plan, reusing its
// internal frame buffers across calls. Not safe for concurrent use — build
// one per goroutine (the shared FFT plan underneath is safe to share).
type SpectrogramPlan struct {
	window  []float64
	overlap int
	plan    *Plan
	frame   []complex128 // one windowed frame, len(window)
	spec    []complex128 // its transform, plan-sized
}

// NewSpectrogramPlan builds a spectrogram plan for the given window function
// and inter-frame overlap (in samples).
func NewSpectrogramPlan(window []float64, overlap int) *SpectrogramPlan {
	plan := PlanFor(len(window))
	return &SpectrogramPlan{
		window:  append([]float64(nil), window...),
		overlap: overlap,
		plan:    plan,
		frame:   make([]complex128, len(window)),
		spec:    make([]complex128, plan.Size()),
	}
}

// hop returns the inter-frame stride in samples (>= 1).
func (s *SpectrogramPlan) hop() int {
	h := len(s.window) - s.overlap
	if h < 1 {
		h = 1
	}
	return h
}

// Frames returns how many spectrogram frames Compute produces for a trace of
// n samples.
func (s *SpectrogramPlan) Frames(n int) int {
	if len(s.window) == 0 || n < len(s.window) {
		return 0
	}
	return (n-len(s.window))/s.hop() + 1
}

// Compute appends the power spectrogram of x to dst (pass nil to allocate)
// and returns it, reusing dst's rows when their capacity allows. Rows are
// indexed as psd[frame][bin] with bins in FFT order, matching Spectrogram.
func (s *SpectrogramPlan) Compute(x []complex128, dst [][]float64) [][]float64 {
	nFrames := s.Frames(len(x))
	if nFrames == 0 {
		return dst[:0]
	}
	hop := s.hop()
	nfft := s.plan.Size()
	if cap(dst) < nFrames {
		grown := make([][]float64, nFrames)
		copy(grown, dst[:len(dst)])
		dst = grown
	}
	dst = dst[:nFrames]
	for f := range dst {
		// The transform zero-pads the frame to the plan size.
		seg := x[f*hop : f*hop+len(s.window)]
		for i, w := range s.window {
			s.frame[i] = seg[i] * complex(w, 0)
		}
		s.plan.Transform(s.spec, s.frame)
		if cap(dst[f]) < nfft {
			dst[f] = make([]float64, nfft)
		}
		dst[f] = dst[f][:nfft]
		for i, v := range s.spec {
			re, im := real(v), imag(v)
			dst[f][i] = re*re + im*im
		}
	}
	return dst
}
