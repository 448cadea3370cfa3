// Package attack implements the paper's frame delay attack (§4): a
// combination of stealthy jamming and delayed replay that injects an
// arbitrary delay τ into the delivery of a LoRaWAN uplink without breaking
// its cryptographic integrity.
//
// Roles (Fig. 1):
//
//   - The jammer (co-located with the replayer near the gateway) starts
//     transmitting inside the effective attack window (t0+w1, t0+w2] so the
//     victim chip drops the legitimate frame silently.
//   - The eavesdropper, near the end device, records the frame's radio
//     waveform; the jamming signal is weak there after propagation loss.
//   - The replayer re-emits the recorded waveform τ seconds after the
//     legitimate onset, through its own radio front end — adding its
//     oscillator's frequency bias, the artifact SoftLoRa detects.
package attack

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"softlora/internal/chip"
	"softlora/internal/dsp"
	"softlora/internal/lora"
	"softlora/internal/radio"
)

// Replayer models the USRP-based replayer: a software-defined transmitter
// that re-emits recorded I/Q through its own oscillator.
type Replayer struct {
	// FrequencyBiasHz is the replayer oscillator's bias. The paper's USRP
	// N210 adds −543 to −743 Hz (−0.62 to −0.85 ppm at 869.75 MHz).
	FrequencyBiasHz float64
	// JitterHz is the per-replay bias jitter (default 30 Hz when Rand is
	// set).
	JitterHz float64
	// TxPowerdBm is the replay transmit power (≤7 dBm keeps the replay
	// inconspicuous at the gateway, §8.1.1).
	TxPowerdBm float64
	// Delay is the injected delay τ from the legitimate onset to the
	// replay onset, seconds.
	Delay float64
	// Rand supplies jitter; optional.
	Rand *rand.Rand
}

// Reemit passes a recorded waveform through the replayer's transmit chain:
// a frequency shift by the replayer's oscillator bias. The returned
// waveform has unit power scale (power is applied via the channel's
// Emission.TxPowerdBm).
func (r *Replayer) Reemit(wf []complex128, sampleRate float64) []complex128 {
	bias := r.FrequencyBiasHz
	if r.Rand != nil {
		j := r.JitterHz
		if j == 0 {
			j = 30
		}
		bias += r.Rand.NormFloat64() * j
	}
	out := make([]complex128, len(wf))
	if len(wf) == 0 {
		return out
	}
	rot := dsp.NewRotator(1, 0, bias, 1/sampleRate)
	rot.MulInto(out, wf)
	return out
}

// Scenario wires the attack geometry: path losses from each actor to each
// receiver and the victim gateway's chip model.
type Scenario struct {
	// Params is the channel/data-rate configuration in use.
	Params lora.Params
	// SampleRate for waveform captures.
	SampleRate float64
	// Rand drives noise; required.
	Rand *rand.Rand

	// Gateway is the victim chip model.
	Gateway *chip.Receiver

	// Device→gateway link.
	DeviceTxPowerdBm    float64
	DeviceGatewayLossdB float64

	// Jammer→gateway link (the jammer sits near the gateway).
	JammerTxPowerdBm    float64
	JammerGatewayLossdB float64
	// JamOnsetAfter is the jamming onset relative to the legitimate frame
	// onset; pick inside the effective attack window.
	JamOnsetAfter float64

	// Device→eavesdropper and jammer→eavesdropper links (the eavesdropper
	// sits near the device, far from the jammer).
	DeviceEaveLossdB      float64
	JammerEaveLossdB      float64
	EaveNoiseFloordBm     float64
	ReplayerGatewayLossdB float64

	// Replayer re-emits the recording after τ.
	Replayer Replayer
}

// Result reports one executed frame delay attack.
type Result struct {
	// JamOutcome is what the victim gateway chip experienced.
	JamOutcome chip.Outcome
	// Stealthy is true when the jamming raised no alert (the effective
	// attack window was hit).
	Stealthy bool
	// EavesdropSINRdB is the device-signal to jam-plus-noise ratio at the
	// eavesdropper; the recording is usable when it exceeds the
	// demodulation floor.
	EavesdropSINRdB float64
	// RecordingUsable reports whether the replayed frame can decode.
	RecordingUsable bool
	// Recording is the eavesdropper's capture (starts at the legitimate
	// frame onset).
	Recording *radio.Capture
	// ReplayEmission is the replayer's transmission toward the gateway,
	// ready to be fed to a channel/SDR capture.
	ReplayEmission radio.Emission
	// ReplayRSSIdBm is the replayed frame's received power at the gateway.
	ReplayRSSIdBm float64
	// LegitRSSIdBm is the device's normal received power at the gateway.
	LegitRSSIdBm float64
	// RSSIInconspicuous is true when the replay stays below the gateway
	// front end's saturation level, so the reception looks like a normal
	// frame (§8.1.1: a replayer next to the gateway must keep its USRP at
	// ≤7 dBm for the replay to go unnoticed).
	RSSIInconspicuous bool
	// InjectedDelay is τ: the timestamp error a synchronization-free
	// gateway would incur.
	InjectedDelay float64
}

// Scenario validation errors.
var (
	ErrNilRand    = errors.New("attack: Scenario.Rand must be set")
	ErrNilGateway = errors.New("attack: Scenario.Gateway must be set")
)

// saturationRSSIdBm is the received power above which the victim front end
// saturates and the reception becomes conspicuous. Calibrated to §8.1.1's
// observation that a replayer next to the gateway (≈40 dB path loss) stays
// unnoticed up to 7 dBm transmit power: 7 − 40 = −33 dBm.
const saturationRSSIdBm = -32.5

// Execute runs the full frame delay attack for one uplink frame emitted at
// t0 with the given impairments, and returns the attack outcome plus the
// replay emission for the gateway's receive pipeline.
func (s *Scenario) Execute(frame lora.Frame, imp lora.Impairments, t0 float64) (*Result, error) {
	if s.Rand == nil {
		return nil, ErrNilRand
	}
	if s.Gateway == nil {
		return nil, ErrNilGateway
	}
	res := &Result{InjectedDelay: s.Replayer.Delay}

	// 1. Jamming at the victim gateway: classify the chip outcome.
	legit := chip.Transmission{
		Start:      t0,
		PayloadLen: len(frame.Payload),
		PowerdBm:   s.DeviceTxPowerdBm - s.DeviceGatewayLossdB,
	}
	jam := chip.Transmission{
		Start:      t0 + s.JamOnsetAfter,
		PayloadLen: len(frame.Payload),
		PowerdBm:   s.JammerTxPowerdBm - s.JammerGatewayLossdB,
	}
	res.JamOutcome = s.Gateway.Classify(legit, &jam)
	res.Stealthy = res.JamOutcome == chip.OutcomeSilentDrop
	res.LegitRSSIdBm = legit.PowerdBm

	// 2. Eavesdropper recording near the device: the device signal is
	// strong, the jamming weak after crossing the building/distance.
	deviceAtEave := s.DeviceTxPowerdBm - s.DeviceEaveLossdB
	jamAtEave := s.JammerTxPowerdBm - s.JammerEaveLossdB
	interference := radio.DBmToPower(jamAtEave) + radio.DBmToPower(s.EaveNoiseFloordBm)
	res.EavesdropSINRdB = deviceAtEave - radio.PowerTodBm(interference)
	res.RecordingUsable = res.EavesdropSINRdB >= lora.DemodulationFloorSNR(s.Params.SF)

	dur, err := frame.ModulatedDuration()
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	eaveChannel := &radio.Channel{
		SampleRate:    s.SampleRate,
		NoiseFloordBm: s.EaveNoiseFloordBm,
		Rand:          s.Rand,
	}
	emissions := []radio.Emission{
		{
			Frame:       frame,
			Impairments: imp,
			StartTime:   t0,
			TxPowerdBm:  s.DeviceTxPowerdBm,
			PathLossdB:  s.DeviceEaveLossdB,
		},
		{
			Frame:       frame, // jamming frame: same airtime class
			Impairments: lora.Impairments{FrequencyBias: 5e3},
			StartTime:   t0 + s.JamOnsetAfter,
			TxPowerdBm:  s.JammerTxPowerdBm,
			PathLossdB:  s.JammerEaveLossdB,
		},
	}
	recording, err := eaveChannel.Receive(emissions, t0, dur+2e-3)
	if err != nil {
		return nil, fmt.Errorf("attack: eavesdropper capture: %w", err)
	}
	res.Recording = recording

	// 3. Replay after τ: re-emit through the replayer's front end. The
	// recording has the path gain to the eavesdropper baked in; normalize
	// to unit power so Emission.TxPowerdBm sets the on-air power.
	replayWf := s.Replayer.Reemit(recording.IQ, s.SampleRate)
	if p := powerOf(replayWf); p > 0 {
		scale := complex(1/math.Sqrt(p), 0)
		for i := range replayWf {
			replayWf[i] *= scale
		}
	}
	res.ReplayEmission = radio.Emission{
		Waveform:   replayWf,
		StartTime:  t0 + s.Replayer.Delay,
		TxPowerdBm: s.Replayer.TxPowerdBm,
		PathLossdB: s.ReplayerGatewayLossdB,
		Distance:   1, // the replayer sits next to the gateway
	}
	res.ReplayRSSIdBm = s.Replayer.TxPowerdBm - s.ReplayerGatewayLossdB
	res.RSSIInconspicuous = res.ReplayRSSIdBm <= saturationRSSIdBm
	return res, nil
}

func powerOf(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	return sum / float64(len(x))
}

// PickJamOnset returns a jamming onset inside the effective attack window
// for the given receiver and payload length, at the window fraction frac
// (0 → just after w1, 1 → at w2).
func PickJamOnset(r *chip.Receiver, payloadLen int, frac float64) float64 {
	w1, w2 := r.EffectiveAttackWindow(payloadLen)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	// Keep a small guard after w1.
	guard := (w2 - w1) * 0.05
	return w1 + guard + frac*(w2-w1-2*guard)
}
