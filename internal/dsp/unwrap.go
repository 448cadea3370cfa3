package dsp

import "math"

// UnwrapPhase rectifies a wrapped phase sequence (values in (-pi, pi]) into
// a continuous sequence by adding multiples of 2*pi whenever consecutive
// samples jump by more than pi. This implements the 2*k*pi rectification of
// the paper's §7.1.1: when atan2 jumps from -pi to pi, k decreases by one;
// when it jumps from pi to -pi, k increases by one.
func UnwrapPhase(phase []float64) []float64 {
	out := make([]float64, len(phase))
	if len(phase) == 0 {
		return out
	}
	out[0] = phase[0]
	offset := 0.0
	for i := 1; i < len(phase); i++ {
		d := phase[i] - phase[i-1]
		if d > math.Pi {
			offset -= 2 * math.Pi
		} else if d < -math.Pi {
			offset += 2 * math.Pi
		}
		out[i] = phase[i] + offset
	}
	return out
}

// UnwrapPhaseInPlace rectifies a wrapped phase sequence in place, using the
// same 2*k*pi rule as UnwrapPhase but without allocating.
func UnwrapPhaseInPlace(phase []float64) {
	offset := 0.0
	for i := 1; i < len(phase); i++ {
		d := phase[i] - (phase[i-1] - offset)
		if d > math.Pi {
			offset -= 2 * math.Pi
		} else if d < -math.Pi {
			offset += 2 * math.Pi
		}
		phase[i] += offset
	}
}
