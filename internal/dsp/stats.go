package dsp

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// MinMax returns the smallest and largest values of x. It returns (0, 0)
// for an empty slice.
func MinMax(x []float64) (lo, hi float64) {
	if len(x) == 0 {
		return 0, 0
	}
	lo, hi = x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Percentile returns the p-th percentile (0 <= p <= 100) of x using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := make([]float64, len(x))
	copy(s, x)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// BoxStats summarizes a sample the way the paper's box/error-bar plots do.
type BoxStats struct {
	Min    float64
	P25    float64
	Median float64
	P75    float64
	Max    float64
	Mean   float64
}

// Summarize computes BoxStats for x.
func Summarize(x []float64) BoxStats {
	lo, hi := MinMax(x)
	return BoxStats{
		Min:    lo,
		P25:    Percentile(x, 25),
		Median: Percentile(x, 50),
		P75:    Percentile(x, 75),
		Max:    hi,
		Mean:   Mean(x),
	}
}

// MaxAbs returns the largest |x[i]|, or 0 for an empty slice.
func MaxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
