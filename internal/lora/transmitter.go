package lora

import (
	"math"
	"math/rand"
)

// Transmitter models a LoRa end device's radio front end: a crystal
// oscillator with a manufacturing frequency bias (tens of ppm, stable per
// device with small per-frame jitter — paper Fig. 13) and a transmit power
// setting.
type Transmitter struct {
	// ID identifies the device (also used as the claimed source node ID in
	// frames).
	ID string
	// BiasPPM is the oscillator's manufacturing frequency bias in
	// parts-per-million of the carrier. RN2483 devices measured in the
	// paper show −29 to −20 ppm.
	BiasPPM float64
	// JitterHz is the standard deviation of the per-frame frequency jitter
	// around the nominal bias (default 30 Hz when zero).
	JitterHz float64
	// TempDriftHzPerFrame adds a deterministic slow drift, modelling
	// temperature-induced skew for FB-database tracking experiments.
	TempDriftHzPerFrame float64
	// PowerdBm is the transmit power in dBm (RN2483 range roughly
	// −3..14 dBm).
	PowerdBm float64

	framesSent int
}

// BiasHz returns the nominal oscillator bias in Hz for the given channel
// parameters.
func (t *Transmitter) BiasHz(p Params) float64 {
	return t.BiasPPM * 1e-6 * p.CenterFrequency
}

// NextImpairments draws the analog impairments for the next transmitted
// frame: nominal bias + jitter + accumulated temperature drift, and a
// uniformly random initial phase (the receiver is never phase-locked,
// paper §6.1.2).
func (t *Transmitter) NextImpairments(p Params, rng *rand.Rand) Impairments {
	jitter := t.JitterHz
	if jitter == 0 {
		jitter = 30
	}
	fb := t.BiasHz(p) +
		rng.NormFloat64()*jitter +
		float64(t.framesSent)*t.TempDriftHzPerFrame
	t.framesSent++
	return Impairments{
		FrequencyBias: fb,
		InitialPhase:  rng.Float64() * 2 * math.Pi,
		Amplitude:     1,
	}
}

// NewFleet builds n transmitters with oscillator biases uniformly drawn
// from [ppmLo, ppmHi], reproducing the 16-device fleet of the paper's
// Fig. 13 (absolute biases of 20 to 29 ppm; the measured RN2483 biases are
// negative).
func NewFleet(n int, ppmLo, ppmHi float64, rng *rand.Rand) []*Transmitter {
	fleet := make([]*Transmitter, n)
	for i := range fleet {
		fleet[i] = &Transmitter{
			ID:       fleetID(i),
			BiasPPM:  ppmLo + rng.Float64()*(ppmHi-ppmLo),
			PowerdBm: 14,
		}
	}
	return fleet
}

// fleetID formats a stable device name for fleet member i.
func fleetID(i int) string {
	const digits = "0123456789"
	if i < 10 {
		return "node-" + string(digits[i])
	}
	return "node-" + string(digits[i/10%10]) + string(digits[i%10])
}
