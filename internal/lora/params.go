package lora

import (
	"errors"
	"fmt"
	"math"
)

// Spreading factor bounds defined by the LoRa PHY.
const (
	MinSF = 6
	MaxSF = 12
)

// DefaultPreambleChirps is the default LoRaWAN uplink preamble length
// (8 programmed chirps; the radio appends 4.25 symbols of sync word).
const DefaultPreambleChirps = 8

// EU868 channel defaults used throughout the paper's evaluation.
const (
	// DefaultCenterFrequency is the EU868 channel used in all of the
	// paper's experiments (869.75 MHz).
	DefaultCenterFrequency = 869.75e6
	// DefaultBandwidth is the LoRaWAN EU868 channel bandwidth (125 kHz).
	DefaultBandwidth = 125e3
)

// Errors reported by Params.Validate.
var (
	ErrBadSpreadingFactor = errors.New("lora: spreading factor out of [6, 12]")
	ErrBadBandwidth       = errors.New("lora: bandwidth must be positive")
	ErrBadCodingRate      = errors.New("lora: coding rate must be in [1, 4]")
	ErrBadPreamble        = errors.New("lora: preamble must have at least 6 chirps")
)

// Params describes a LoRa PHY configuration (one channel + data-rate
// setting).
type Params struct {
	// SF is the spreading factor in [6, 12]; each chirp carries SF bits.
	SF int
	// Bandwidth is the channel bandwidth W in Hz (125 kHz for EU868
	// LoRaWAN).
	Bandwidth float64
	// CenterFrequency is the RF channel center fc in Hz. It does not affect
	// baseband synthesis but is used to convert frequency biases to ppm.
	CenterFrequency float64
	// CodingRate selects forward error correction 4/(4+CodingRate); valid
	// values are 1..4.
	CodingRate int
	// PreambleChirps is the number of programmed preamble up chirps
	// (LoRaWAN default 8).
	PreambleChirps int
	// ExplicitHeader includes the PHY header in each frame (LoRaWAN
	// uplinks always do).
	ExplicitHeader bool
	// CRC appends a payload CRC-16 (on for LoRaWAN uplinks).
	CRC bool
	// LowDataRateOptimize enables the low-data-rate optimization mandated
	// for SF11/SF12 at 125 kHz.
	LowDataRateOptimize bool
}

// DefaultParams returns the configuration used in the paper's experiments:
// 869.75 MHz, 125 kHz, explicit header, CRC on, coding rate 4/5.
func DefaultParams(sf int) Params {
	return Params{
		SF:                  sf,
		Bandwidth:           DefaultBandwidth,
		CenterFrequency:     DefaultCenterFrequency,
		CodingRate:          1,
		PreambleChirps:      DefaultPreambleChirps,
		ExplicitHeader:      true,
		CRC:                 true,
		LowDataRateOptimize: sf >= 11,
	}
}

// Validate checks the parameter combination.
func (p Params) Validate() error {
	if p.SF < MinSF || p.SF > MaxSF {
		return fmt.Errorf("%w: got %d", ErrBadSpreadingFactor, p.SF)
	}
	if p.Bandwidth <= 0 {
		return fmt.Errorf("%w: got %g", ErrBadBandwidth, p.Bandwidth)
	}
	if p.CodingRate < 1 || p.CodingRate > 4 {
		return fmt.Errorf("%w: got %d", ErrBadCodingRate, p.CodingRate)
	}
	if p.PreambleChirps < 6 {
		return fmt.Errorf("%w: got %d", ErrBadPreamble, p.PreambleChirps)
	}
	return nil
}

// ChipsPerSymbol returns 2^SF, the number of chips per chirp.
func (p Params) ChipsPerSymbol() int { return 1 << p.SF }

// ChirpTime returns the duration of one chirp (symbol) in seconds:
// 2^SF / W.
func (p Params) ChirpTime() float64 {
	return float64(p.ChipsPerSymbol()) / p.Bandwidth
}

// PPM converts a frequency offset in Hz to parts-per-million of the channel
// center frequency.
func (p Params) PPM(hz float64) float64 {
	if p.CenterFrequency == 0 {
		return math.Inf(1)
	}
	return hz / p.CenterFrequency * 1e6
}

// HzFromPPM converts a parts-per-million oscillator bias to Hz at the
// channel center frequency.
func (p Params) HzFromPPM(ppm float64) float64 {
	return ppm * 1e-6 * p.CenterFrequency
}

// SamplesPerChirp returns the (real-valued) number of samples a chirp spans
// at the given sample rate.
func (p Params) SamplesPerChirp(sampleRate float64) float64 {
	return p.ChirpTime() * sampleRate
}
