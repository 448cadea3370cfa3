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
	sum, sumSq := sc.prefixSums(n)
	aicPrefix(sum, sumSq, x)
	best, bestK := aicScan(sum, sumSq, margin, n-margin, stride, math.Inf(1), -1)
	if stride > 1 && bestK >= 0 {
		lo, hi := strideRefine(bestK, margin, n, stride)
		_, bestK = aicScan(sum, sumSq, lo, hi, 1, best, bestK)
	}
	return bestK
}

// Onset32Strided is OnsetStrided on the float32 lane: the same changepoint
// picker over a single-precision trace, with prefix sums accumulated in
// float64 (cancellation protection) and ln(var) evaluated as ln(S) − ln(m)
// through a float32 Cephes log plus precomputed length tables — no
// divisions, and no call at all, in the hot loop. It exists for the
// coarse/mid stages of the hierarchical AIC detector, where the pick only
// has to land inside the refinement window of the next stage; the final
// stage stays on the exact float64 Onset.
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
	sum, sumSq := sc.prefixSums(n)
	aicPrefix(sum, sumSq, x)
	sc.ensureLenTables(n)
	best, bestK := aicScan32(sum, sumSq, sc.lnLen, sc.invLen, margin, n-margin, stride, float32(math.Inf(1)), -1)
	if stride > 1 && bestK >= 0 {
		lo, hi := strideRefine(bestK, margin, n, stride)
		_, bestK = aicScan32(sum, sumSq, sc.lnLen, sc.invLen, lo, hi, 1, best, bestK)
	}
	return bestK
}

// prefixSums returns the scratch prefix-sum buffers sized for an n-sample
// trace.
func (sc *AICScratch) prefixSums(n int) (sum, sumSq []float64) {
	if cap(sc.sum) < n+1 {
		sc.sum = make([]float64, n+1)
		sc.sumSq = make([]float64, n+1)
	}
	return sc.sum[:n+1], sc.sumSq[:n+1]
}

// strideRefine returns the dense second-pass range [lo, hi) around a
// strided pick: ±(stride−1) samples, clamped to the candidate set
// [margin, n−margin). Re-evaluating the pick itself is harmless — equal,
// not smaller, so the strict argmin keeps it.
func strideRefine(bestK, margin, n, stride int) (lo, hi int) {
	return max(bestK-stride+1, margin), min(bestK+stride, n-margin)
}

// aicPrefix writes the prefix sums sum[i] = Σ_{j<i} x[j] and
// sumSq[i] = Σ_{j<i} x[j]² in float64; len(sum) and len(sumSq) must be
// len(x)+1. The running sums
// stay in registers, so no iteration waits on the store of the one before.
//
//softlora:allocfree
func aicPrefix[T float32 | float64](sum, sumSq []float64, x []T) {
	sum, sumSq = sum[:len(x)+1], sumSq[:len(x)+1]
	var s, q float64
	sum[0], sumSq[0] = 0, 0
	for i, v := range x {
		v64 := float64(v)
		s += v64
		q += v64 * v64
		sum[i+1] = s
		sumSq[i+1] = q
	}
}

// aicScan is OnsetStrided's candidate search: the strict argmin of
//
//	AIC(k) = k·ln(var(x[0:k])) + (n−k−1)·ln(var(x[k:n]))
//
// over k = lo, lo+step, … < hi, starting from the incumbent (best, bestK),
// where n = len(sum)−1 and sum/sumSq are aicPrefix's sums.
//
//softlora:allocfree
func aicScan(sum, sumSq []float64, lo, hi, step int, best float64, bestK int) (float64, int) {
	n := len(sum) - 1
	sumSq = sumSq[:n+1]
	totSum, totSq := sum[n], sumSq[n]
	for k := lo; k < hi; k += step {
		sk, qk := sum[k], sumSq[k]
		m1 := float64(k)
		v1 := qk/m1 - (sk/m1)*(sk/m1)
		if v1 < 1e-300 {
			v1 = 1e-300
		}
		m2 := float64(n - k)
		mean2 := (totSum - sk) / m2
		v2 := (totSq-qk)/m2 - mean2*mean2
		if v2 < 1e-300 {
			v2 = 1e-300
		}
		if aic := float64(k)*math.Log(v1) + float64(n-k-1)*math.Log(v2); aic < best {
			best, bestK = aic, k
		}
	}
	return best, bestK
}

// aicScan32 is Onset32Strided's candidate search, aicScan's float32 twin:
// segment variances as S/m with S = Σx² − (Σx)²/m, and
//
//	AIC(k) = k·(ln S1 − ln k) + (n−k−1)·(ln S2 − ln(n−k))
//
// with the length logs and reciprocals from the lnLen/invLen tables. The two
// logs run the float32 Cephes logf below inline, lane by lane, so a
// candidate costs no call: range reduction to [√2/2, √2) and the degree-9
// polynomial in Estrin's form, whose dependency chain is ~4 multiply-adds
// deep instead of 9 (~4e-7 relative error; the Horner form was
// latency-bound and slower than math.Log).
//
//softlora:allocfree
func aicScan32(sum, sumSq []float64, lnLen []float32, invLen []float64, lo, hi, step int, best float32, bestK int) (float32, int) {
	n := len(sum) - 1
	sumSq = sumSq[:n+1]
	lnLen, invLen = lnLen[:n+1], invLen[:n+1]
	totSum, totSq := sum[n], sumSq[n]
	for k := lo; k < hi; k += step {
		m2 := n - k
		sk := sum[k]
		s1 := sumSq[k] - sk*(sk*invLen[k])
		d2 := totSum - sk
		s2 := (totSq - sumSq[k]) - d2*(d2*invLen[m2])
		if s1 < 1e-30 {
			s1 = 1e-30
		}
		if s2 < 1e-30 {
			s2 = 1e-30
		}
		b1, b2 := math.Float32bits(float32(s1)), math.Float32bits(float32(s2))
		e1, e2 := int32(b1>>23)-127, int32(b2>>23)-127
		f1 := math.Float32frombits(b1&0x7fffff | 0x3f800000) // mantissa in [1, 2)
		f2 := math.Float32frombits(b2&0x7fffff | 0x3f800000)
		if f1 > 1.4142135 {
			f1 *= 0.5
			e1++
		}
		if f2 > 1.4142135 {
			f2 *= 0.5
			e2++
		}
		z1, z2 := f1-1, f2-1
		zz1, zz2 := z1*z1, z2*z2
		z41, z42 := zz1*zz1, zz2*zz2
		p1 := (3.3333331174e-1 + z1*-2.4999993993e-1) + zz1*(2.0000714765e-1+z1*-1.6668057665e-1) +
			z41*((1.4249322787e-1+z1*-1.2420140846e-1+zz1*(1.1676998740e-1+z1*-1.1514610310e-1))+z41*7.0376836292e-2)
		p2 := (3.3333331174e-1 + z2*-2.4999993993e-1) + zz2*(2.0000714765e-1+z2*-1.6668057665e-1) +
			z42*((1.4249322787e-1+z2*-1.2420140846e-1+zz2*(1.1676998740e-1+z2*-1.1514610310e-1))+z42*7.0376836292e-2)
		ln1 := z1 + zz1*z1*p1 - 0.5*zz1 + 0.69314718*float32(e1)
		ln2 := z2 + zz2*z2*p2 - 0.5*zz2 + 0.69314718*float32(e2)
		if aic := float32(k)*(ln1-lnLen[k]) + float32(n-k-1)*(ln2-lnLen[m2]); aic < best {
			best, bestK = aic, k
		}
	}
	return best, bestK
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
