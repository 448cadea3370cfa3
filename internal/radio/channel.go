package radio

import (
	"fmt"
	"math"
	"math/rand"

	"softlora/internal/lora"
)

// Emission is one scheduled transmission entering the channel.
type Emission struct {
	// Frame is the LoRa frame to modulate.
	Frame lora.Frame
	// Impairments are the transmitter's analog imperfections.
	Impairments lora.Impairments
	// StartTime is the emission onset in seconds on the channel timeline
	// (time the first preamble sample leaves the antenna).
	StartTime float64
	// TxPowerdBm is the transmit power (unit waveform amplitude ≡ 0 dBm).
	TxPowerdBm float64
	// PathLossdB is the total propagation loss to the receiver.
	PathLossdB float64
	// Distance in meters sets the propagation delay to the receiver.
	Distance float64
	// Waveform, when non-nil, is transmitted instead of modulating Frame —
	// used by the replayer, which re-emits recorded I/Q data verbatim.
	Waveform []complex128
}

// receivedAmplitude converts TX power and path loss into the baseband
// amplitude scale factor applied to a unit waveform.
func (e Emission) receivedAmplitude() float64 {
	rxdBm := e.TxPowerdBm - e.PathLossdB
	return math.Sqrt(DBmToPower(rxdBm))
}

// Channel combines emissions and noise into receiver captures.
type Channel struct {
	// SampleRate of the produced capture in samples/s.
	SampleRate float64
	// NoiseFloordBm is the AWGN power over the capture bandwidth.
	NoiseFloordBm float64
	// Rand supplies the noise; required.
	Rand *rand.Rand
}

// Capture holds a received baseband trace with its timing metadata.
type Capture struct {
	// IQ is the baseband trace.
	IQ []complex128
	// Rate is the sample rate in samples/s.
	Rate float64
	// Start is the channel-timeline time of sample 0, in seconds.
	Start float64
}

// SampleAt returns the (fractional) sample index corresponding to channel
// time t.
func (c *Capture) SampleAt(t float64) float64 { return (t - c.Start) * c.Rate }

// Release does nothing: a capture is ordinary garbage once its holder
// drops it.
//
// Deprecated: there is nothing to release. Release stays only because the
// benchmark module (softlorabench) still calls it; it goes once that module
// stops.
func (c *Capture) Release() {}

// Receive renders the channel as seen by a receiver over the window
// [start, start+duration): every emission is modulated, delayed by its
// propagation time, scaled by its path gain, and summed, then AWGN at the
// noise floor is added. Each call allocates the capture it returns.
func (ch *Channel) Receive(emissions []Emission, start, duration float64) (*Capture, error) {
	if ch.SampleRate <= 0 {
		return nil, fmt.Errorf("radio: sample rate must be positive")
	}
	if ch.Rand == nil {
		return nil, fmt.Errorf("radio: Channel.Rand must be set")
	}
	n := int(math.Ceil(duration * ch.SampleRate))
	iq := make([]complex128, n)
	for i, e := range emissions {
		arrival := e.StartTime + PropagationDelay(e.Distance) - start
		amp := e.receivedAmplitude()
		if e.Waveform != nil {
			addScaledWaveform(iq, e.Waveform, ch.SampleRate, arrival, amp)
			continue
		}
		imp := e.Impairments
		if imp.Amplitude == 0 {
			imp.Amplitude = 1
		}
		imp.Amplitude *= amp
		if err := e.Frame.ModulateAt(iq, imp, ch.SampleRate, arrival); err != nil {
			return nil, fmt.Errorf("radio: emission %d: %w", i, err)
		}
	}
	// AWGN at the configured floor.
	sigma := math.Sqrt(DBmToPower(ch.NoiseFloordBm) / 2)
	for i := range iq {
		iq[i] += complex(ch.Rand.NormFloat64()*sigma, ch.Rand.NormFloat64()*sigma)
	}
	return &Capture{IQ: iq, Rate: ch.SampleRate, Start: start}, nil
}

// addScaledWaveform adds a pre-rendered waveform (sampled at the channel
// rate) into dst at continuous start time arrival, scaled by amp. The
// waveform is placed at the nearest sample grid point with linear
// interpolation between neighbors to honor fractional delays.
func addScaledWaveform(dst, wf []complex128, rate, arrival, amp float64) {
	offset := arrival * rate
	base := int(math.Floor(offset))
	frac := offset - float64(base)
	a := complex(amp*(1-frac), 0)
	b := complex(amp*frac, 0)
	// Clip each tap's overlap window against dst once, instead of
	// bounds-checking every sample.
	lo, hi := overlap(base, len(wf), len(dst))
	for i := lo; i < hi; i++ {
		dst[base+i] += wf[i] * a
	}
	lo, hi = overlap(base+1, len(wf), len(dst))
	for i := lo; i < hi; i++ {
		dst[base+1+i] += wf[i] * b
	}
}

// overlap returns the waveform index range [lo, hi) whose samples land
// inside a destination of length dstLen when placed at offset base.
func overlap(base, wfLen, dstLen int) (lo, hi int) {
	lo = 0
	if base < 0 {
		lo = -base
	}
	hi = wfLen
	if m := dstLen - base; m < hi {
		hi = m
	}
	return lo, hi
}

// SNRAtReceiver returns the SNR in dB a receiver observes for the given
// transmit power, path loss, and noise floor.
func SNRAtReceiver(txPowerdBm, pathLossdB, noiseFloordBm float64) float64 {
	return txPowerdBm - pathLossdB - noiseFloordBm
}
