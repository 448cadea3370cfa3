package lora

import (
	"math"
	"testing"
)

func TestPayloadSymbolsKnownValues(t *testing.T) {
	// Hand-computed from the SX1276 datasheet formula, explicit header,
	// CRC on, CR 4/5, no LDRO.
	tests := []struct {
		sf, payload, want int
	}{
		{7, 10, 28},
		{7, 20, 43},
		{7, 30, 58},
		{7, 40, 68},
		{8, 30, 48},
		{9, 30, 43},
	}
	for _, tt := range tests {
		p := DefaultParams(tt.sf)
		p.LowDataRateOptimize = false
		if got := p.PayloadSymbols(tt.payload); got != tt.want {
			t.Errorf("SF%d payload %d: symbols = %d, want %d", tt.sf, tt.payload, got, tt.want)
		}
	}
}

func TestPayloadSymbolsMinimum(t *testing.T) {
	// The formula never returns fewer than 8 symbols.
	p := DefaultParams(12)
	if got := p.PayloadSymbols(0); got < 8 {
		t.Errorf("symbols = %d, want >= 8", got)
	}
}

func TestAirtimeMonotonic(t *testing.T) {
	p := DefaultParams(9)
	prev := 0.0
	for payload := 0; payload <= 100; payload += 10 {
		at := p.Airtime(payload)
		if at < prev {
			t.Fatalf("airtime not monotonic at payload %d", payload)
		}
		prev = at
	}
}

func TestAirtimeSF12MatchesPaperDutyCycleExample(t *testing.T) {
	// Paper §3.2: an SF12 device under the 1% ETSI duty cycle can send
	// ~24 30-byte frames per hour.
	p := DefaultParams(12)
	got := p.MaxFramesPerHour(30, 0.01)
	if got < 20 || got > 28 {
		t.Errorf("frames/hour = %d, want ~24", got)
	}
}

func TestDemodulationFloorSNR(t *testing.T) {
	// SX1276 datasheet: −7.5 dB at SF7 .. −20 dB at SF12 (paper §7.1.2).
	tests := []struct {
		sf   int
		want float64
	}{
		{7, -7.5}, {8, -10}, {9, -12.5}, {10, -15}, {11, -17.5}, {12, -20},
	}
	for _, tt := range tests {
		if got := DemodulationFloorSNR(tt.sf); got != tt.want {
			t.Errorf("SF%d floor = %f, want %f", tt.sf, got, tt.want)
		}
	}
	if !math.IsInf(DemodulationFloorSNR(42), 1) {
		t.Error("unknown SF should be +Inf")
	}
}

func TestLDROReducesEffectiveBits(t *testing.T) {
	with := DefaultParams(12)
	with.LowDataRateOptimize = true
	without := DefaultParams(12)
	without.LowDataRateOptimize = false
	if with.PayloadSymbols(30) <= without.PayloadSymbols(30) {
		t.Error("LDRO should increase symbol count")
	}
}
