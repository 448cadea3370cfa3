// Package chip models the receive behaviour of a commodity LoRa gateway
// chip (Semtech SX1276 / Microchip RN2483) under interference, at the event
// level: which of two overlapping transmissions decodes, and whether the
// host is alerted. The model encodes the causal rules the paper establishes
// experimentally in §4.3:
//
//  1. The chip locks onto a preamble at the 6th consecutive preamble chirp.
//     Before lock, a sufficiently stronger signal captures the demodulator
//     (the chip re-locks to it).
//  2. After lock, corruption of the last preamble chirps or the PHY header
//     makes the chip drop the reception silently — it cannot tell whether
//     it is the intended recipient, so it raises no error.
//  3. Corruption late in the payload lets the decode run to completion and
//     surface a CRC/integrity alert; corruption early in the payload aborts
//     the demodulator silently. The boundary is the calibrated
//     SilentAbortFraction (see Config).
//  4. After the frame ends (plus chip/OS processing latency), both frames
//     are received sequentially.
//
// The three jamming windows of the paper's Table 1 (w1, w2, w3) follow
// directly from these rules.
package chip

import (
	"errors"
	"fmt"

	"softlora/internal/lora"
)

// Outcome classifies what the victim gateway experiences.
type Outcome int

// Possible outcomes of a legitimate transmission under jamming.
const (
	// OutcomeLegitReceived: the legitimate frame decodes normally (no or
	// ineffective jamming).
	OutcomeLegitReceived Outcome = iota + 1
	// OutcomeJammerCaptured: the chip re-locks onto the (stronger) jamming
	// signal; the gateway receives the jamming frame only.
	OutcomeJammerCaptured
	// OutcomeSilentDrop: neither frame is received and no alert is raised —
	// the stealthy jamming regime.
	OutcomeSilentDrop
	// OutcomeCRCAlert: the chip reports frame corruption to the host.
	OutcomeCRCAlert
	// OutcomeBothReceived: the legitimate and jamming frames are received
	// sequentially.
	OutcomeBothReceived
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeLegitReceived:
		return "legit-received"
	case OutcomeJammerCaptured:
		return "jammer-captured"
	case OutcomeSilentDrop:
		return "silent-drop"
	case OutcomeCRCAlert:
		return "crc-alert"
	case OutcomeBothReceived:
		return "both-received"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Config holds the behavioural constants of the chip model. Two of them
// are calibrated against the paper's Table 1 rather than taken from it:
// SilentAbortFraction and ProcessingLatency, each explained at its field.
type Config struct {
	// LockChirps is the number of preamble chirps after which the chip has
	// locked (a jammer starting before this captures the demodulator).
	// Paper §4.3: the RN2483 locks from the 6th chirp, so jamming must
	// start after the 5th.
	LockChirps int
	// SilentAbortFraction is the fraction of the payload (after the
	// header) whose corruption still aborts silently; corruption beyond it
	// completes decoding and raises a CRC alert. Calibrated to ≈0.45
	// against Table 1.
	SilentAbortFraction float64
	// ProcessingLatency is the chip/OS turnaround (seconds) added to the
	// frame airtime before a subsequent frame can be received cleanly
	// (Table 1's w3 ≈ airtime + ~100 ms for the RN2483 serial stack).
	ProcessingLatency float64
	// CaptureMargindB is how much stronger (dB) a signal must be to
	// capture the demodulator before preamble lock.
	CaptureMargindB float64
	// CorruptMargindB is the co-channel rejection: interference weaker
	// than the locked signal by more than this margin does not corrupt it
	// (LoRa tolerates ~6 dB weaker same-SF interference).
	CorruptMargindB float64
}

// DefaultConfig returns the RN2483-calibrated constants.
func DefaultConfig() Config {
	return Config{
		LockChirps:          5,
		SilentAbortFraction: 0.45,
		ProcessingLatency:   0.100,
		CaptureMargindB:     3,
		CorruptMargindB:     6,
	}
}

// Transmission describes one on-air frame as seen by the gateway antenna.
type Transmission struct {
	// Start is the arrival time of the first preamble sample, seconds.
	Start float64
	// PayloadLen is the PHY payload length in bytes (sets the duration via
	// the airtime formula).
	PayloadLen int
	// PowerdBm is the received power at the gateway.
	PowerdBm float64
}

// Receiver is the behavioural chip model for one channel configuration.
type Receiver struct {
	Params lora.Params
	Config Config
}

// NewReceiver builds a Receiver with the default RN2483 configuration.
func NewReceiver(params lora.Params) *Receiver {
	return &Receiver{Params: params, Config: DefaultConfig()}
}

// ErrBadConfig is returned for non-positive timing configuration.
var ErrBadConfig = errors.New("chip: invalid configuration")

// timeline returns the legit frame's critical instants relative to its
// start: preamble lock deadline, silent/alert boundary, and frame end.
func (r *Receiver) timeline(payloadLen int) (lockEnd, silentEnd, frameEnd float64) {
	t := r.Params.ChirpTime()
	lockEnd = float64(r.Config.LockChirps) * t
	preambleEnd := (float64(r.Params.PreambleChirps) + 4.25) * t
	headerEnd := preambleEnd + 8*t
	frameEnd = preambleEnd + float64(r.Params.PayloadSymbols(payloadLen))*t
	silentEnd = headerEnd + r.Config.SilentAbortFraction*(frameEnd-headerEnd)
	return lockEnd, silentEnd, frameEnd
}

// Windows returns the paper's Table 1 jamming windows for a legitimate
// frame with the given payload size, in seconds after the legitimate
// transmission onset:
//
//	w1: jamming starting in [0, w1] captures the chip (gateway receives
//	    the jamming frame only);
//	(w1, w2]: the stealthy effective attack window — neither frame is
//	    received and no alert is raised;
//	(w2, w3]: the chip reports frame corruption;
//	after w3: both frames are received sequentially.
func (r *Receiver) Windows(payloadLen int) (w1, w2, w3 float64) {
	lockEnd, silentEnd, frameEnd := r.timeline(payloadLen)
	return lockEnd, silentEnd, frameEnd + r.Config.ProcessingLatency
}

// Classify determines the gateway outcome for a legitimate transmission
// under an optional jamming transmission. Jamming that is too weak to
// corrupt the locked signal is ignored.
func (r *Receiver) Classify(legit Transmission, jam *Transmission) Outcome {
	if jam == nil {
		return OutcomeLegitReceived
	}
	rel := jam.Start - legit.Start
	lockEnd, silentEnd, frameEnd := r.timeline(legit.PayloadLen)
	switch {
	case rel <= lockEnd:
		// Before lock: capture effect if the jammer is stronger by the
		// margin; otherwise the chip stays/locks on the legit preamble and
		// the jammer acts as in-band interference below.
		if jam.PowerdBm >= legit.PowerdBm+r.Config.CaptureMargindB {
			return OutcomeJammerCaptured
		}
		if jam.PowerdBm >= legit.PowerdBm-r.Config.CorruptMargindB {
			// Comparable power through the whole frame: reception fails
			// over the preamble → silent drop.
			return OutcomeSilentDrop
		}
		return OutcomeLegitReceived
	case rel <= frameEnd:
		if jam.PowerdBm < legit.PowerdBm-r.Config.CorruptMargindB {
			return OutcomeLegitReceived
		}
		if rel <= silentEnd {
			return OutcomeSilentDrop
		}
		return OutcomeCRCAlert
	default:
		return OutcomeBothReceived
	}
}

// SweepWindows measures w1/w2/w3 empirically by sweeping the jamming onset
// over the frame timeline with the given step (seconds) and locating the
// outcome boundaries, the way the paper measures Table 1. The jammer is
// assumed strong (near the gateway).
func (r *Receiver) SweepWindows(payloadLen int, step float64) (w1, w2, w3 float64, err error) {
	if step <= 0 {
		return 0, 0, 0, fmt.Errorf("%w: step %g", ErrBadConfig, step)
	}
	legit := Transmission{Start: 0, PayloadLen: payloadLen, PowerdBm: -80}
	jam := Transmission{PayloadLen: payloadLen, PowerdBm: -40}
	_, _, frameEnd := r.timeline(payloadLen)
	horizon := frameEnd + r.Config.ProcessingLatency + 0.05
	var lastCapture, lastSilent, lastAlert float64
	sawAlert := false
	for at := 0.0; at <= horizon; at += step {
		jam.Start = at
		switch r.Classify(legit, &jam) {
		case OutcomeJammerCaptured:
			lastCapture = at
		case OutcomeSilentDrop:
			lastSilent = at
		case OutcomeCRCAlert:
			lastAlert = at
			sawAlert = true
		}
	}
	if !sawAlert {
		return 0, 0, 0, fmt.Errorf("%w: sweep found no CRC-alert region", ErrBadConfig)
	}
	// w3 includes the chip's processing latency, as measured by the paper
	// (the gateway only reports both frames after its serial turnaround).
	return lastCapture, lastSilent, lastAlert + r.Config.ProcessingLatency, nil
}

// EffectiveAttackWindow returns the stealthy jamming window (w1, w2] the
// frame delay attack must hit, per payload size.
func (r *Receiver) EffectiveAttackWindow(payloadLen int) (start, end float64) {
	w1, w2, _ := r.Windows(payloadLen)
	return w1, w2
}
