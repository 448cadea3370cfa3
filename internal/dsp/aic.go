package dsp

import "math"

// AICScratch holds the prefix-sum buffers of the AIC picker so repeated
// picks (per-uplink onset detection) run without allocating. Not safe for
// concurrent use — one scratch per goroutine.
type AICScratch struct {
	sum, sumSq []float64
	// Length tables for the float32 lane: lnLen[m] = ln(m) and
	// invLen[m] = 1/m, so the per-candidate work is two fast logs and no
	// divisions (ln(S/m) = ln(S) − lnLen[m], S/m via invLen).
	lnLen  []float32
	invLen []float64
}

// Onset picks the onset sample of a transient in a real-valued trace
// using the Akaike Information Criterion picker of Maeda (the on-line
// variant of the AR-AIC picker of Sleeman & van Eck used by the paper,
// §6.1.2). For every candidate split point k the trace is modelled as two
// stationary segments; the k minimizing
//
//	AIC(k) = k*ln(var(x[0:k])) + (n-k-1)*ln(var(x[k:n]))
//
// is returned. The detector is threshold-free. It returns -1 for traces
// shorter than 2*margin+2 samples.
//
// margin excludes the first and last margin samples from the candidate set,
// where one of the two segment variances would be estimated from too few
// samples to be meaningful.
func (sc *AICScratch) Onset(x []float64, margin int) int {
	return sc.OnsetStrided(x, margin, 1)
}

// OnsetStrided is Onset with a coarse-to-fine candidate search: a first
// pass evaluates every stride-th split point, a second dense pass refines
// within ±(stride−1) of the winner. For the smooth AIC valleys the
// hierarchical detector's coarse stages produce, the two-pass argmin lands
// on (or within a couple of samples of) the dense argmin at ~1/stride of
// the log evaluations; callers whose next stage re-searches a window around
// the pick absorb the residual. stride ≤ 1 is the dense search.
func (sc *AICScratch) OnsetStrided(x []float64, margin, stride int) int {
	n := len(x)
	if margin < 1 {
		margin = 1
	}
	if n < 2*margin+2 {
		return -1
	}
	if stride < 1 {
		stride = 1
	}
	if cap(sc.sum) < n+1 {
		sc.sum = make([]float64, n+1)
		sc.sumSq = make([]float64, n+1)
	}
	sum := sc.sum[:n+1]
	sumSq := sc.sumSq[:n+1]
	sum[0], sumSq[0] = 0, 0
	for i, v := range x {
		sum[i+1] = sum[i] + v
		sumSq[i+1] = sumSq[i] + v*v
	}
	aicAt := func(k int) float64 {
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
	best := math.Inf(1)
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

// Onset32Strided is OnsetStrided on the float32 lane: the same changepoint
// picker over a single-precision trace, with prefix sums accumulated in
// float64 (cancellation protection) and ln(var) evaluated as ln(S) − ln(m)
// through fastLn32 plus precomputed length tables — no divisions or
// math.Log in the hot loop. It exists for the coarse/mid stages of the
// hierarchical AIC detector, where the pick only has to land inside the
// refinement window of the next stage; the final stage stays on the exact
// float64 Onset.
func (sc *AICScratch) Onset32Strided(x []float32, margin, stride int) int {
	n := len(x)
	if margin < 1 {
		margin = 1
	}
	if n < 2*margin+2 {
		return -1
	}
	if stride < 1 {
		stride = 1
	}
	if cap(sc.sum) < n+1 {
		sc.sum = make([]float64, n+1)
		sc.sumSq = make([]float64, n+1)
	}
	sum := sc.sum[:n+1]
	sumSq := sc.sumSq[:n+1]
	sum[0], sumSq[0] = 0, 0
	for i, v := range x {
		v64 := float64(v)
		sum[i+1] = sum[i] + v64
		sumSq[i+1] = sumSq[i] + v64*v64
	}
	sc.ensureLenTables(n)
	lnLen, invLen := sc.lnLen, sc.invLen
	totSum, totSq := sum[n], sumSq[n]
	aicAt := func(k int) float32 {
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
	best := float32(math.Inf(1))
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

// ensureLenTables grows the ln(m)/1/m tables to cover segment lengths up to
// n inclusive.
func (sc *AICScratch) ensureLenTables(n int) {
	if len(sc.lnLen) > n {
		return
	}
	sc.lnLen = make([]float32, n+1)
	sc.invLen = make([]float64, n+1)
	sc.invLen[0] = 0 // length-0 segments never occur; keep a defined value
	for m := 1; m <= n; m++ {
		sc.lnLen[m] = float32(math.Log(float64(m)))
		sc.invLen[m] = 1 / float64(m)
	}
}

// fastLn32 is a single-precision natural log for strictly positive, finite,
// normal inputs (the AIC lane floors its arguments at 1e-30). Range
// reduction to [√2/2, √2) plus the Cephes logf polynomial, evaluated with
// Estrin's scheme so the dependency chain is ~4 multiply-adds deep instead
// of 9 — in the AIC loop, which issues two back-to-back logs per candidate,
// the Horner form was latency-bound and slower than math.Log.
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

// AICCurve returns the AIC value at every candidate split point (NaN inside
// the margins), for plotting Fig. 9(b)-style diagnostics.
func AICCurve(x []float64, margin int) []float64 {
	n := len(x)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	if margin < 1 {
		margin = 1
	}
	if n < 2*margin+2 {
		return out
	}
	sum := make([]float64, n+1)
	sumSq := make([]float64, n+1)
	for i, v := range x {
		sum[i+1] = sum[i] + v
		sumSq[i+1] = sumSq[i] + v*v
	}
	varSeg := func(a, b int) float64 {
		m := float64(b - a)
		if m <= 0 {
			return 0
		}
		mean := (sum[b] - sum[a]) / m
		v := (sumSq[b]-sumSq[a])/m - mean*mean
		if v < 1e-300 {
			v = 1e-300
		}
		return v
	}
	for k := margin; k < n-margin; k++ {
		out[k] = float64(k)*math.Log(varSeg(0, k)) +
			float64(n-k-1)*math.Log(varSeg(k, n))
	}
	return out
}
