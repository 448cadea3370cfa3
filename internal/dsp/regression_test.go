package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearRegressionExactLine(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 2.5*v - 1.25
	}
	fit := LinearRegression(x, y)
	if math.Abs(fit.Slope-2.5) > 1e-12 || math.Abs(fit.Intercept+1.25) > 1e-12 {
		t.Fatalf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %f, want 1", fit.R2)
	}
}

func TestLinearRegressionNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	n := 2000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i) / 100
		y[i] = -0.7*x[i] + 3 + rng.NormFloat64()*0.1
	}
	fit := LinearRegression(x, y)
	if math.Abs(fit.Slope+0.7) > 0.01 {
		t.Errorf("slope = %f, want -0.7", fit.Slope)
	}
	if math.Abs(fit.Intercept-3) > 0.1 {
		t.Errorf("intercept = %f, want 3", fit.Intercept)
	}
	if fit.R2 < 0.9 {
		t.Errorf("R2 = %f, want > 0.9", fit.R2)
	}
}

func TestLinearRegressionDegenerate(t *testing.T) {
	if fit := LinearRegression(nil, nil); fit != (LinearFit{}) {
		t.Error("empty input should give zero fit")
	}
	if fit := LinearRegression([]float64{1, 2}, []float64{1}); fit != (LinearFit{}) {
		t.Error("mismatched lengths should give zero fit")
	}
	// Constant x: slope undefined, returns mean as intercept.
	fit := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3})
	if fit.Slope != 0 || math.Abs(fit.Intercept-2) > 1e-12 {
		t.Errorf("constant-x fit = %+v", fit)
	}
}

func TestLinearRegressionUniformMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 500
	x0, dx := 0.25, 0.001
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = x0 + float64(i)*dx
		y[i] = 123*x[i] - 4 + rng.NormFloat64()*0.01
	}
	a := LinearRegression(x, y)
	b := LinearRegressionUniform(y, x0, dx)
	if math.Abs(a.Slope-b.Slope) > 1e-6*math.Abs(a.Slope) {
		t.Errorf("slopes differ: %f vs %f", a.Slope, b.Slope)
	}
	if math.Abs(a.Intercept-b.Intercept) > 1e-6 {
		t.Errorf("intercepts differ: %f vs %f", a.Intercept, b.Intercept)
	}
	if math.Abs(a.R2-b.R2) > 1e-9 {
		t.Errorf("R2 differ: %f vs %f", a.R2, b.R2)
	}
}

func TestLinearRegressionUniformProperty(t *testing.T) {
	f := func(slopeRaw, interceptRaw int16) bool {
		slope := float64(slopeRaw) / 100
		intercept := float64(interceptRaw) / 100
		y := make([]float64, 64)
		for i := range y {
			y[i] = slope*float64(i)*0.5 + intercept
		}
		fit := LinearRegressionUniform(y, 0, 0.5)
		return math.Abs(fit.Slope-slope) < 1e-6+1e-9*math.Abs(slope) &&
			math.Abs(fit.Intercept-intercept) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// wrap maps an angle into (-pi, pi], the range atan2 returns.
func wrap(theta float64) float64 { return math.Atan2(math.Sin(theta), math.Cos(theta)) }

func TestUnwrapPhaseLinearRamp(t *testing.T) {
	// A steadily increasing phase wrapped into (-pi, pi] should unwrap back
	// to the ramp (modulo constant).
	n := 500
	truth := make([]float64, n)
	wrapped := make([]float64, n)
	for i := range truth {
		truth[i] = 0.13 * float64(i)
		wrapped[i] = wrap(truth[i])
	}
	un := UnwrapPhase(wrapped)
	for i := range truth {
		if math.Abs(un[i]-truth[i]) > 1e-9 {
			t.Fatalf("unwrap[%d] = %f, want %f", i, un[i], truth[i])
		}
	}
}

func TestUnwrapPhaseDownRamp(t *testing.T) {
	n := 500
	truth := make([]float64, n)
	wrapped := make([]float64, n)
	for i := range truth {
		truth[i] = -0.21 * float64(i)
		wrapped[i] = wrap(truth[i])
	}
	un := UnwrapPhase(wrapped)
	for i := range truth {
		if math.Abs(un[i]-truth[i]) > 1e-9 {
			t.Fatalf("unwrap[%d] = %f, want %f", i, un[i], truth[i])
		}
	}
}

func TestUnwrapEmpty(t *testing.T) {
	if got := UnwrapPhase(nil); len(got) != 0 {
		t.Error("expected empty output")
	}
}
