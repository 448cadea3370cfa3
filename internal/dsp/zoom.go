package dsp

import "math"

// ZoomDFT evaluates the DFT of an m-sample sequence on a dense uniform
// frequency grid — the "zoom" stage of a coarse-to-fine spectral estimate,
// where a small FFT has already localized a tone and the grid refines it far
// below the FFT's bin spacing:
//
//	X_k = Σ_{i<m} x[i]·e^{−j(ω0 + k·dω)·i}     k = 0..points−1
//
// It is a chirp-Z transform: with ik = (i² + k² − (k−i)²)/2 the grid
// evaluation factors into a premultiply by the fixed chirp e^{−j·dω·i²/2},
// a linear convolution against the fixed kernel e^{+j·dω·t²/2}, and a
// postmultiply by e^{−j·dω·k²/2}. The convolution runs through one cached
// FFT plan of length NextPow2(m+points−1), so a transform costs two
// planned transforms of that size — O((m+points)·log(m+points)) — against
// O(points·m) for a Goertzel evaluation per grid point.
//
// The grid start ω0 is a per-call argument (only the spacing dω is baked
// into the kernel), applied as a first-order phasor recurrence over the
// input, so one initialized ZoomDFT serves any band of a given width.
// After Init, Transform allocates nothing. Not safe for concurrent use:
// one instance per goroutine.
type ZoomDFT struct {
	m      int
	points int
	domega float64

	plan   *Plan
	pre    []complex128 // e^{−j·dω·i²/2}, i < m
	post   []complex128 // e^{−j·dω·k²/2}, k < points
	kernel []complex128 // FFT of e^{+j·dω·t²/2} laid out circularly over L
	work   []complex128 // L-point convolution buffer
}

// Stale reports whether the kernel must be rebuilt for this geometry.
func (z *ZoomDFT) Stale(m, points int, domega float64) bool {
	return z.m != m || z.points != points || z.domega != domega
}

// Init precomputes the chirp tables and the convolution kernel's transform
// for m-sample inputs, the given grid size, and grid spacing domega
// (radians per sample). m and points must be positive.
func (z *ZoomDFT) Init(m, points int, domega float64) {
	z.m, z.points, z.domega = m, points, domega
	l := NextPow2(m + points - 1)
	z.plan = PlanFor(l)
	if cap(z.pre) < m {
		z.pre = make([]complex128, m)
	}
	z.pre = z.pre[:m]
	for i := range z.pre {
		s, c := math.Sincos(-domega * float64(i) * float64(i) / 2)
		z.pre[i] = complex(c, s)
	}
	if cap(z.post) < points {
		z.post = make([]complex128, points)
	}
	z.post = z.post[:points]
	for k := range z.post {
		s, c := math.Sincos(-domega * float64(k) * float64(k) / 2)
		z.post[k] = complex(c, s)
	}
	if cap(z.kernel) < l {
		z.kernel = make([]complex128, l)
		z.work = make([]complex128, l)
	}
	z.kernel = z.kernel[:l]
	z.work = z.work[:l]
	// The linear convolution index k−i spans −(m−1)..points−1; lay the
	// kernel out circularly so the length-l circular convolution matches
	// the linear one on the first `points` outputs.
	for i := range z.kernel {
		z.kernel[i] = 0
	}
	for t := -(m - 1); t < points; t++ {
		s, c := math.Sincos(domega * float64(t) * float64(t) / 2)
		z.kernel[((t%l)+l)%l] = complex(c, s)
	}
	z.plan.TransformInPlace(z.kernel)
}

// Transform evaluates the grid X_k = Σ x[i]·e^{−j(omega0+k·dω)i} into
// dst[:points]. len(x) must equal the Init m; len(dst) must be at least
// points. It allocates nothing.
//
//softlora:allocfree
func (z *ZoomDFT) Transform(dst, x []complex128, omega0 float64) {
	m := z.m
	if len(x) != m {
		panic("dsp: ZoomDFT input length does not match Init")
	}
	work := z.work
	// a[i] = x[i]·e^{−j·ω0·i}·pre[i]; the ω0 ramp runs on a first-order
	// phasor recurrence (re-seeded internally by the Rotator) so the
	// per-call band placement costs one complex multiply per sample.
	rot := NewRotator(1, 0, -omega0/(2*math.Pi), 1)
	rot.MulInto(work[:m], x)
	for i := 0; i < m; i++ {
		work[i] *= z.pre[i]
	}
	for i := m; i < len(work); i++ {
		work[i] = 0
	}
	z.plan.TransformInPlace(work)
	for i := range work {
		work[i] *= z.kernel[i]
	}
	z.plan.InverseInPlace(work)
	for k := 0; k < z.points; k++ {
		dst[k] = work[k] * z.post[k]
	}
}
