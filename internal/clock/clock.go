// Package clock models the oscillators behind data timestamping — drifting
// device crystals — and the arithmetic of §3.2 of the paper that compares
// synchronization-based and synchronization-free timestamping overheads.
package clock

// PaperExampleDrift is the crystal drift rate (ppm) of the paper's §3.2
// worked example, within the 30-50 ppm typical of microcontrollers and PCs.
const PaperExampleDrift = 40

// Oscillator models a free-running clock with a constant drift rate,
// started in step with global time.
type Oscillator struct {
	// DriftPPM is the rate error in parts-per-million: a positive value
	// makes the local clock run fast.
	DriftPPM float64
}

// LocalAt converts a global time (seconds since the oscillator's epoch)
// into the oscillator's local reading.
func (o *Oscillator) LocalAt(global float64) float64 {
	return global * (1 + o.DriftPPM*1e-6)
}

// SyncSessionsPerHour returns how many clock-synchronization sessions per
// hour a device needs to keep its clock error below maxError seconds at the
// given drift rate. The paper's example: 40 ppm and sub-10 ms error →
// 14 sessions/hour.
func SyncSessionsPerHour(maxError, driftPPM float64) float64 {
	if maxError <= 0 || driftPPM <= 0 {
		return 0
	}
	interval := maxError / (driftPPM * 1e-6)
	return 3600 / interval
}

// MaxBufferTime returns how long a record may sit in the device's buffer
// before transmission while keeping the local-clock drift below maxDrift
// seconds (the sync-free approach's §3.2 bound: 10 ms at 40 ppm →
// 4.1 minutes).
func MaxBufferTime(maxDrift, driftPPM float64) float64 {
	if maxDrift <= 0 || driftPPM <= 0 {
		return 0
	}
	return maxDrift / (driftPPM * 1e-6)
}
