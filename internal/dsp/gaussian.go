package dsp

import "math"

// GaussianSource is a fast, seedable standard-normal generator built on a
// 128-layer ziggurat over a splitmix64 counter stream. It exists because the
// SDR front end burns two Gaussian draws per complex sample (the I and Q
// ADC dither) and math/rand's NormFloat64 costs ~10x a ziggurat draw; at
// 15k-sample captures that difference is ~100 us per uplink.
//
// Draws refill an internal block buffer so the steady-state Norm call is a
// bounds check and a buffer read — zero allocations after construction.
// Block consumers call Fill instead, which generates straight into their
// slice; both read the same stream.
// Seeding is O(1) (splitmix64 state assignment), unlike rand.Rand.Seed which
// walks the whole lagged-Fibonacci state; pipelines reseeding per uplink get
// that for free.
//
// The zero value is a valid source seeded with 0. GaussianSource is not safe
// for concurrent use; give each worker its own (it is 2 KiB, embeddable by
// value).
type GaussianSource struct {
	state uint64
	pos   int
	buf   [gaussBlock]float64
}

const gaussBlock = 256

// 128-layer ziggurat constants for the standard normal (Marsaglia & Tsang):
// zigR is the base-layer edge, zigV the common layer area.
const (
	zigR = 3.442619855899
	zigV = 9.91256303526217e-3
)

// zigX[i] is the width of layer i (zigX[0] is the pseudo-width of the
// base/tail layer, zigX[128] = 0 at the cap); zigF[i] = exp(-zigX[i]^2/2).
// zigW/zigK fold the common-case accept test into one integer compare and
// one multiply on a signed 31-bit lattice: x = j*zigW[i] for j in
// [-2^31, 2^31), accepted outright when |j| < zigK[i].
var (
	zigX [129]float64
	zigF [129]float64
	zigW [128]float64
	zigK [128]int64
	// zigT[i] = zigX[i+1]²/2 is wedgeBelow's expansion point for layer i:
	// the exponent of zigF[i+1], the curve at the wedge's top edge.
	zigT [128]float64
)

func init() {
	f := math.Exp(-0.5 * zigR * zigR)
	zigX[0] = zigV / f // pseudo-width so the base layer has area zigV
	zigX[1] = zigR
	for i := 2; i < 128; i++ {
		prev := zigX[i-1]
		zigX[i] = math.Sqrt(-2 * math.Log(zigV/prev+math.Exp(-0.5*prev*prev)))
	}
	zigX[128] = 0 // cap layer: every draw takes the density test
	for i := range zigF {
		zigF[i] = math.Exp(-0.5 * zigX[i] * zigX[i])
	}
	for i := range zigW {
		zigW[i] = zigX[i] * 0x1p-31
		zigK[i] = int64(math.Floor(0x1p31 * zigX[i+1] / zigX[i]))
		zigT[i] = 0.5 * zigX[i+1] * zigX[i+1]
	}
}

// Seed resets the source to a deterministic stream derived from seed and
// discards any buffered draws, so Seed(s) followed by N calls to Norm always
// yields the same N values regardless of prior use.
func (g *GaussianSource) Seed(seed int64) {
	g.state = uint64(seed)
	g.pos = 0
}

// next is a splitmix64 step: a counter plus a finalizer mix. Statistical
// quality is ample for noise synthesis and seeding cost is a single store.
func (g *GaussianSource) next() uint64 {
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Norm returns the next standard-normal draw. Steady state is a buffered
// read; every gaussBlock draws the buffer refills in one tight block. pos
// counts remaining buffered values, so the zero value (pos == 0) refills on
// first use instead of leaking an all-zeros buffer.
//
//softlora:allocfree
func (g *GaussianSource) Norm() float64 {
	if g.pos == 0 {
		return g.normRefill()
	}
	g.pos--
	return g.buf[gaussBlock-1-g.pos]
}

// normRefill keeps the refill off Norm's fast path so Norm stays inlinable
// at call sites. The noinline pin is what makes that work: without it the
// compiler inlines this wrapper back into Norm, and Norm itself blows the
// inlining budget.
//
//go:noinline
func (g *GaussianSource) normRefill() float64 {
	g.fill(g.buf[:])
	g.pos = gaussBlock - 1
	return g.buf[0]
}

// NormPair returns two independent standard-normal draws, in stream order —
// the natural shape for complex noise (re, im).
func (g *GaussianSource) NormPair() (float64, float64) {
	return g.Norm(), g.Norm()
}

// Fill writes the next len(dst) draws into dst, in stream order: dst holds
// exactly what len(dst) Norm calls would return, and the stream continues
// after them. Draws already buffered by Norm come first; the rest are
// generated straight into dst, with no copy through the buffer — the shape
// for block consumers such as the SDR quantizer's dither.
//
//softlora:allocfree
func (g *GaussianSource) Fill(dst []float64) {
	n := copy(dst, g.buf[gaussBlock-g.pos:])
	g.pos -= n
	g.fill(dst[n:])
}

// fill generates the next len(dst) draws of the stream into dst. A pair
// with a miss leaves fillRect's call-free loop and is resolved here. If
// its first draw was accepted, that draw is kept and only the second is
// resolved, from its own stream position (the value after the pair). A
// miss on the first draw consumes the values after it, so the second is
// redrawn from wherever that resolution stops. Either way the emitted
// stream is the serial drawOne stream, bit for bit.
func (g *GaussianSource) fill(dst []float64) {
	for len(dst) >= 2 {
		k, z0, z1 := g.fillRect(dst)
		dst = dst[k:]
		if len(dst) < 2 {
			break
		}
		i0, j0 := z0&127, int64(int32(z0>>32))
		a0 := j0
		if a0 < 0 {
			a0 = -a0
		}
		if a0 < zigK[i0] {
			dst[0] = float64(j0) * zigW[i0]
			g.state += 0x3c6ef372fe94f82a
			dst[1] = g.drawSlow(int64(int32(z1>>32)), z1&127)
		} else {
			g.state += 0x9e3779b97f4a7c15
			dst[0] = g.drawSlow(j0, i0)
			dst[1] = g.drawOne()
		}
		dst = dst[2:]
	}
	if len(dst) == 1 {
		dst[0] = g.drawOne()
	}
}

// fillRect writes draws into dst two at a time for as long as both draws
// of a pair pass their rectangle test (~95% of pairs), and returns how
// many it wrote. It stops at the first pair with a miss, with g.state at
// that pair's start, and returns the pair's two stream values z0, z1 for
// fill to resolve. The loop is unrolled two draws wide — the splitmix
// finalizer chains of a pair interleave instead of serializing, which a
// single-draw loop is latency-bound on — and it makes no call, so no
// register has to be saved across one. One stream value feeds both the
// layer index (low bits) and the signed 31-bit lattice coordinate (high
// bits).
func (g *GaussianSource) fillRect(dst []float64) (k int, z0, z1 uint64) {
	s := g.state
	for ; k+2 <= len(dst); k += 2 {
		u0 := s + 0x9e3779b97f4a7c15
		s = u0 + 0x9e3779b97f4a7c15
		u1 := s
		u0 = (u0 ^ (u0 >> 30)) * 0xbf58476d1ce4e5b9
		u1 = (u1 ^ (u1 >> 30)) * 0xbf58476d1ce4e5b9
		u0 = (u0 ^ (u0 >> 27)) * 0x94d049bb133111eb
		u1 = (u1 ^ (u1 >> 27)) * 0x94d049bb133111eb
		u0 ^= u0 >> 31
		u1 ^= u1 >> 31
		j0 := int64(int32(u0 >> 32))
		j1 := int64(int32(u1 >> 32))
		a0, a1 := j0, j1
		if a0 < 0 {
			a0 = -a0
		}
		if a1 < 0 {
			a1 = -a1
		}
		if a0 >= zigK[u0&127] || a1 >= zigK[u1&127] {
			s -= 0x3c6ef372fe94f82a
			z0, z1 = u0, u1
			break
		}
		dst[k] = float64(j0) * zigW[u0&127]
		dst[k+1] = float64(j1) * zigW[u1&127]
	}
	g.state = s
	return k, z0, z1
}

// drawOne is one serial ziggurat draw: the stream's definition, which fill
// reproduces two draws at a time, and its path for a lone trailing draw.
func (g *GaussianSource) drawOne() float64 {
	z := g.next()
	idx := z & 127
	j := int64(int32(z >> 32))
	a := j
	if a < 0 {
		a = -a
	}
	if a < zigK[idx] {
		return float64(j) * zigW[idx]
	}
	return g.drawSlow(j, idx)
}

// drawSlow resolves a draw that missed the rectangle test: a wedge density
// test for interior layers, the exact exponential tail sampler (Marsaglia's
// method) from the base layer, redrawing on rejection.
func (g *GaussianSource) drawSlow(j int64, i uint64) float64 {
	for {
		x := float64(j) * zigW[i]
		if i == 0 {
			// Base layer beyond zigR: sample the exact Gaussian tail.
			for {
				u1 := (float64(g.next()>>11) + 0.5) * 0x1p-53
				u2 := (float64(g.next()>>11) + 0.5) * 0x1p-53
				ex := -math.Log(u1) / zigR
				ey := -math.Log(u2)
				if ey+ey > ex*ex {
					return math.Copysign(zigR+ex, float64(j))
				}
			}
		}
		// Wedge between layer i's rectangle and the curve (for i == 127 this
		// is the cap region under the peak, where zigF[128] = 1).
		y := zigF[i] + float64(g.next()>>11)*0x1p-53*(zigF[i+1]-zigF[i])
		if wedgeBelow(i, x, y) {
			return x
		}
		u := g.next()
		i = u & 127
		j = int64(int32(u >> 32))
		a := j
		if a < 0 {
			a = -a
		}
		if a < zigK[i] {
			return float64(j) * zigW[i]
		}
	}
}

// zigSqueeze is the margin around wedgeBelow's bracket inside which it
// falls back to the exact comparison. Every rounding error on either side —
// math.Exp's, the exponent's, the bracket polynomial's, the tables' — is
// below 1e-14 on values in (0, 1], so 2^-40 ≈ 9.1e-13 leaves a ~90× guard.
const zigSqueeze = 0x1p-40

// wedgeBelow reports y < math.Exp(-0.5*x*x) — the wedge density test of
// layer i (1 ≤ i ≤ 127) — with the same decision as that comparison, but
// without math.Exp unless y lies within zigSqueeze of the curve. About the
// wedge's top edge zigX[i+1], e^(−x²/2) = zigF[i+1]·e^(−t) with
// t = (x² − zigX[i+1]²)/2 ∈ [0, 0.74]; the Taylor partial sums of e^(−t)
// ending in t³ and t⁴ bound it from below and above for every t ≥ 0. (A
// missed lattice point can sit one lattice step, ~1e-9, inside the top
// edge, so t ≥ −6e-9 and the upper bound's shortfall there is below
// 1e-40.) The bracket is at most 2.3% of a wedge's height (layer 1) and
// below 1e-5 of it above layer 20, so the exact test runs for a vanishing
// share of wedge points.
func wedgeBelow(i uint64, x, y float64) bool {
	t := 0.5*x*x - zigT[i]
	f := zigF[i+1]
	lo := f * (1 - t*(1-t*(0.5-t*(1.0/6))))
	if y < lo-zigSqueeze {
		return true
	}
	if y >= lo+f*(t*t)*(t*t)*(1.0/24)+zigSqueeze {
		return false
	}
	return y < math.Exp(-0.5*x*x)
}
