// Package timestamp implements the paper's synchronization-free uplink data
// timestamping (§3.2) and the synchronization-based comparator.
//
// Sync-free operation: the end device records each datum's time of interest
// with its unsynchronized local clock; right before transmitting it rewrites
// those times as elapsed-times-up-to-now (18 bits at 1 ms resolution) and
// sends immediately. The gateway, which has a GPS clock, reconstructs
// global timestamps as (frame arrival time − elapsed), relying on the
// near-zero one-hop propagation delay. No synchronization protocol and no
// absolute timestamps on air.
package timestamp

import (
	"errors"
	"fmt"

	"softlora/internal/clock"
)

// Elapsed-time encoding parameters from §3.2: 18 bits at 1 ms resolution
// covers 262.144 s ≈ 4.4 minutes of buffering, enough for the 4.1-minute
// bound at 40 ppm drift and 10 ms error budget.
const (
	ElapsedBits       = 18
	ElapsedResolution = 1e-3 // seconds
	MaxElapsedSeconds = (1<<ElapsedBits - 1) * ElapsedResolution
)

// Encoding errors.
var (
	ErrElapsedNegative = errors.New("timestamp: negative elapsed time")
	ErrElapsedOverflow = errors.New("timestamp: elapsed time exceeds 18-bit range")
)

// EncodeElapsed quantizes an elapsed time in seconds to the 18-bit wire
// value. Times that round past the 18-bit range, +Inf and NaN return
// ErrElapsedOverflow.
func EncodeElapsed(seconds float64) (uint32, error) {
	if seconds < 0 {
		return 0, fmt.Errorf("%w: %g", ErrElapsedNegative, seconds)
	}
	// Range-check the float before converting it: Go leaves the uint32
	// conversion of an out-of-range value or NaN implementation-defined,
	// and on amd64 it wraps, so a record buffered 2^32 ms would encode as
	// fresh.
	ms := seconds/ElapsedResolution + 0.5
	if !(ms < 1<<ElapsedBits) {
		return 0, fmt.Errorf("%w: %g s", ErrElapsedOverflow, seconds)
	}
	return uint32(ms), nil
}

// DecodeElapsed converts a wire value back to seconds.
func DecodeElapsed(v uint32) float64 {
	return float64(v&(1<<ElapsedBits-1)) * ElapsedResolution
}

// Record is one sensor datum buffered on the device.
type Record struct {
	// LocalTime is the device-clock reading when the datum was taken.
	LocalTime float64
	// Value is the application datum.
	Value []byte
}

// Device implements the sync-free device side: it records data with its
// drifting local clock and converts the records' times to elapsed times at
// transmission.
type Device struct {
	// Clock is the device's free-running oscillator.
	Clock *clock.Oscillator

	buffer []Record
}

// Take buffers a datum observed at the given true global time, stamped with
// the local clock.
func (d *Device) Take(globalNow float64, value []byte) {
	d.buffer = append(d.buffer, Record{
		LocalTime: d.Clock.LocalAt(globalNow),
		Value:     value,
	})
}

// FrameRecord is one record as shipped in an uplink frame.
type FrameRecord struct {
	// Elapsed is the 18-bit elapsed-time value.
	Elapsed uint32
	// Value is the application datum.
	Value []byte
}

// Flush converts every buffered record's local time to an elapsed time
// relative to the local clock at the (true global) transmission instant,
// clearing the buffer. Records older than the 18-bit range are reported as
// errors and dropped, which enforces the §3.2 buffering bound.
func (d *Device) Flush(globalNow float64) ([]FrameRecord, error) {
	nowLocal := d.Clock.LocalAt(globalNow)
	out := make([]FrameRecord, 0, len(d.buffer))
	var firstErr error
	for _, r := range d.buffer {
		elapsed := nowLocal - r.LocalTime
		if elapsed < 0 {
			elapsed = 0
		}
		v, err := EncodeElapsed(elapsed)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out = append(out, FrameRecord{Elapsed: v, Value: r.Value})
	}
	d.buffer = d.buffer[:0]
	return out, firstErr
}

// Reconstruct computes the global timestamp of a record from the gateway's
// frame arrival time: arrival − elapsed. This is the gateway-side half of
// the sync-free scheme; arrivalTime should come from the gateway's GPS
// clock (or, on a SoftLoRa gateway, from the PHY signal timestamp).
func Reconstruct(arrivalTime float64, rec FrameRecord) float64 {
	return arrivalTime - DecodeElapsed(rec.Elapsed)
}

// Overhead compares the two timestamping approaches for §3.2.
type Overhead struct {
	// PayloadBytes is the application payload per frame.
	PayloadBytes int
	// TimestampBytes is the absolute-timestamp size used by the sync-based
	// approach (the paper cites 8 bytes).
	TimestampBytes int
}

// SyncBasedPayloadFraction returns the fraction of the payload spent on an
// absolute timestamp (paper: 8 of 30 bytes ≈ 27%).
func (o Overhead) SyncBasedPayloadFraction() float64 {
	if o.PayloadBytes <= 0 {
		return 0
	}
	return float64(o.TimestampBytes) / float64(o.PayloadBytes)
}

// SyncFreePayloadBits returns the per-record time cost of the sync-free
// scheme (18 bits vs 64 for an absolute stamp).
func (o Overhead) SyncFreePayloadBits() int { return ElapsedBits }

// TimestampingError bounds the end-to-end sync-free timestamp error.
type TimestampingError struct {
	// BufferTime is how long the record sat on the device (seconds).
	BufferTime float64
	// DriftPPM is the device clock drift.
	DriftPPM float64
	// RadioUncertainty is the TX-request→emission plus gateway arrival
	// timestamping uncertainty (≈3 ms on commodity stacks per the paper's
	// citation [9]; microseconds with SoftLoRa PHY timestamping).
	RadioUncertainty float64
	// PropagationDelay is the one-hop flight time (microseconds).
	PropagationDelay float64
}

// Bound returns the worst-case absolute timestamp error.
func (e TimestampingError) Bound() float64 {
	drift := e.BufferTime * e.DriftPPM * 1e-6
	if drift < 0 {
		drift = -drift
	}
	return drift + e.RadioUncertainty + e.PropagationDelay + ElapsedResolution/2
}
