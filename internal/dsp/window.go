package dsp

import "math"

// BesselI0 computes the zeroth-order modified Bessel function of the first
// kind via its power series. It is used to evaluate Kaiser windows.
func BesselI0(x float64) float64 {
	sum := 1.0
	term := 1.0
	half := x / 2
	for k := 1; k < 64; k++ {
		term *= (half / float64(k)) * (half / float64(k))
		sum += term
		if term < sum*1e-16 {
			break
		}
	}
	return sum
}

// KaiserWindow returns an n-point Kaiser window with shape parameter beta.
// Larger beta trades main-lobe width for side-lobe suppression.
func KaiserWindow(n int, beta float64) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{1}
	}
	w := make([]float64, n)
	denom := BesselI0(beta)
	m := float64(n - 1)
	for i := 0; i < n; i++ {
		r := 2*float64(i)/m - 1
		w[i] = BesselI0(beta*math.Sqrt(1-r*r)) / denom
	}
	return w
}

// HannWindow returns an n-point Hann window.
func HannWindow(n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{1}
	}
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}
