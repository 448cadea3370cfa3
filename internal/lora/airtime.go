package lora

import "math"

// PreambleDuration returns the on-air duration of the preamble, including
// the 4.25-symbol sync word the radio appends: (n_preamble + 4.25) * T_sym.
func (p Params) PreambleDuration() float64 {
	return (float64(p.PreambleChirps) + 4.25) * p.ChirpTime()
}

// PayloadSymbols returns the number of payload symbols for a payload of
// payloadLen bytes, per the Semtech SX1276 datasheet formula:
//
//	n = 8 + max(ceil((8*PL - 4*SF + 28 + 16*CRC - 20*IH) / (4*(SF-2*DE))) * (CR+4), 0)
func (p Params) PayloadSymbols(payloadLen int) int {
	crc := 0
	if p.CRC {
		crc = 1
	}
	ih := 1 // implicit-header flag: 1 when header is ABSENT
	if p.ExplicitHeader {
		ih = 0
	}
	de := 0
	if p.LowDataRateOptimize {
		de = 1
	}
	num := float64(8*payloadLen - 4*p.SF + 28 + 16*crc - 20*ih)
	den := float64(4 * (p.SF - 2*de))
	extra := math.Ceil(num/den) * float64(p.CodingRate+4)
	if extra < 0 {
		extra = 0
	}
	return 8 + int(extra)
}

// PayloadDuration returns the on-air duration of the header+payload part of
// a frame carrying payloadLen bytes.
func (p Params) PayloadDuration(payloadLen int) float64 {
	return float64(p.PayloadSymbols(payloadLen)) * p.ChirpTime()
}

// Airtime returns the total on-air time of a frame with payloadLen payload
// bytes: preamble + sync + header + payload + CRC.
func (p Params) Airtime(payloadLen int) float64 {
	return p.PreambleDuration() + p.PayloadDuration(payloadLen)
}

// MaxFramesPerHour returns how many frames of payloadLen bytes may be sent
// per hour under the duty-cycle limit (ETSI: 1% in EU868). This reproduces
// the paper's §3.2 example: SF12, 30-byte frames, 1% → 24 frames/hour.
func (p Params) MaxFramesPerHour(payloadLen int, dutyCycle float64) int {
	t := p.Airtime(payloadLen)
	if t <= 0 {
		return 0
	}
	budget := 3600 * dutyCycle
	return int(budget / t)
}

// DemodulationFloorSNR returns the minimum SNR (dB) the SX1276 requires for
// reliable demodulation at the given spreading factor (datasheet values:
// −7.5 dB at SF7 down to −20 dB at SF12).
func DemodulationFloorSNR(sf int) float64 {
	switch sf {
	case 6:
		return -5
	case 7:
		return -7.5
	case 8:
		return -10
	case 9:
		return -12.5
	case 10:
		return -15
	case 11:
		return -17.5
	case 12:
		return -20
	default:
		return math.Inf(1)
	}
}
