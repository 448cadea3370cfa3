package lora

import (
	"errors"
	"math"
	"testing"
)

func TestDefaultParamsValid(t *testing.T) {
	for sf := MinSF; sf <= MaxSF; sf++ {
		p := DefaultParams(sf)
		if err := p.Validate(); err != nil {
			t.Errorf("DefaultParams(%d) invalid: %v", sf, err)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Params)
		want error
	}{
		{"sf low", func(p *Params) { p.SF = 5 }, ErrBadSpreadingFactor},
		{"sf high", func(p *Params) { p.SF = 13 }, ErrBadSpreadingFactor},
		{"bandwidth", func(p *Params) { p.Bandwidth = 0 }, ErrBadBandwidth},
		{"coding rate", func(p *Params) { p.CodingRate = 5 }, ErrBadCodingRate},
		{"preamble", func(p *Params) { p.PreambleChirps = 3 }, ErrBadPreamble},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams(7)
			tt.mut(&p)
			if err := p.Validate(); !errors.Is(err, tt.want) {
				t.Errorf("Validate() = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestChirpTimeMatchesPaperTable1(t *testing.T) {
	// Paper Table 1: chirp times 1.024 ms (SF7), 2.048 ms (SF8),
	// 4.096 ms (SF9) at 125 kHz.
	tests := []struct {
		sf   int
		want float64
	}{
		{7, 1.024e-3}, {8, 2.048e-3}, {9, 4.096e-3}, {12, 32.768e-3},
	}
	for _, tt := range tests {
		p := DefaultParams(tt.sf)
		if got := p.ChirpTime(); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("SF%d chirp time = %g, want %g", tt.sf, got, tt.want)
		}
	}
}

func TestPreambleDurationMatchesPaperTable1(t *testing.T) {
	// Paper Table 1 preamble times: 8.2 ms (SF7), 16.4 ms (SF8),
	// 32.8 ms (SF9) — the paper rounds (8+4.25 programmed vs counted
	// chirps); our value is (8+4.25)*T. The paper's "preamble time" counts
	// the 8 programmed chirps only: 8*T = 8.192 ms ≈ 8.2 ms.
	for _, tt := range []struct {
		sf   int
		want float64 // 8 chirps, as the paper reports
	}{
		{7, 8.192e-3}, {8, 16.384e-3}, {9, 32.768e-3},
	} {
		p := DefaultParams(tt.sf)
		got := float64(p.PreambleChirps) * p.ChirpTime()
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("SF%d programmed preamble = %g, want %g", tt.sf, got, tt.want)
		}
		full := p.PreambleDuration()
		if full <= got {
			t.Errorf("SF%d full preamble %g should exceed programmed %g", tt.sf, full, got)
		}
	}
}

func TestPPMConversionRoundTrip(t *testing.T) {
	p := DefaultParams(7)
	for _, ppm := range []float64{-29, -0.14, 0, 0.62, 25} {
		hz := p.HzFromPPM(ppm)
		if got := p.PPM(hz); math.Abs(got-ppm) > 1e-9 {
			t.Errorf("PPM round trip: %f -> %f", ppm, got)
		}
	}
	// Paper: 120 Hz at 869.75 MHz is 0.14 ppm.
	if got := p.PPM(120); math.Abs(got-0.138) > 0.002 {
		t.Errorf("120 Hz = %f ppm, want ~0.138", got)
	}
}

func TestSamplesPerChirp(t *testing.T) {
	p := DefaultParams(7)
	// 1.024 ms at 2.4 Msps = 2457.6 samples.
	if got := p.SamplesPerChirp(2.4e6); math.Abs(got-2457.6) > 1e-9 {
		t.Errorf("samples per chirp = %f", got)
	}
}
