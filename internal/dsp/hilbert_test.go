package dsp

import (
	"math"
	"testing"
)

func TestEnvelopeOfTone(t *testing.T) {
	// Envelope of A*cos(wt) should be ~A away from the edges.
	const n = 1024
	const amp = 2.5
	x := make([]float64, n)
	for i := range x {
		x[i] = amp * math.Cos(2*math.Pi*50*float64(i)/n)
	}
	var h HilbertScratch
	env := h.Envelope(nil, x)
	for i := n / 8; i < 7*n/8; i++ {
		if math.Abs(env[i]-amp) > 0.05*amp {
			t.Fatalf("envelope[%d] = %f, want ~%f", i, env[i], amp)
		}
	}
}

func TestEnvelopeOfBurstDetectsStep(t *testing.T) {
	// Tone starts halfway: envelope should be ~0 before and ~1 after.
	const n = 2048
	x := make([]float64, n)
	for i := n / 2; i < n; i++ {
		x[i] = math.Sin(2 * math.Pi * 100 * float64(i) / n)
	}
	var h HilbertScratch
	env := h.Envelope(nil, x)
	before := Mean(env[n/8 : 3*n/8])
	after := Mean(env[5*n/8 : 7*n/8])
	if before > 0.1 {
		t.Errorf("pre-onset envelope mean = %f, want ~0", before)
	}
	if math.Abs(after-1) > 0.1 {
		t.Errorf("post-onset envelope mean = %f, want ~1", after)
	}
}

func TestAnalyticSignalRealPartMatchesInput(t *testing.T) {
	const n = 512
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*20*float64(i)/n) + 0.5*math.Cos(2*math.Pi*45*float64(i)/n)
	}
	var h HilbertScratch
	a := h.analytic(x)
	for i := range x {
		if math.Abs(real(a[i])-x[i]) > 1e-9 {
			t.Fatalf("real part mismatch at %d: %f vs %f", i, real(a[i]), x[i])
		}
	}
}

func TestAnalyticSignalQuadratureShift(t *testing.T) {
	// Hilbert transform of cos is sin: imag part should be the 90°-shifted
	// tone (away from edges).
	const n = 1024
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * 64 * float64(i) / n)
	}
	var h HilbertScratch
	a := h.analytic(x)
	for i := n / 8; i < 7*n/8; i++ {
		want := math.Sin(2 * math.Pi * 64 * float64(i) / n)
		if math.Abs(imag(a[i])-want) > 0.02 {
			t.Fatalf("imag[%d] = %f, want %f", i, imag(a[i]), want)
		}
	}
}

func TestEnvelopeEmpty(t *testing.T) {
	var h HilbertScratch
	if got := h.Envelope(nil, nil); len(got) != 0 {
		t.Errorf("envelope of an empty trace has %d samples", len(got))
	}
}
