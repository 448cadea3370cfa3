// Package sdr models the low-cost RTL-SDR receiver the SoftLoRa gateway
// uses for PHY-layer monitoring: quadrature down-conversion with the
// receiver's own oscillator bias δRx and an un-locked random phase θRx
// (RTL-SDR dongles have no phase-lock capability, paper §6.1.2), followed
// by 8-bit ADC quantization with automatic gain control.
//
// The receiver consumes channel captures produced by package radio (already
// at equivalent baseband relative to the RF channel center) and outputs the
// I/Q traces the detection algorithms in package core operate on.
package sdr

import (
	"errors"
	"math"
	"math/rand"

	"softlora/internal/bufpool"
	"softlora/internal/dsp"
	"softlora/internal/radio"
)

// DefaultSampleRate is the RTL-SDR's reliable continuous rate, 2.4 Msps
// (sampling resolution 0.42 µs, paper §5.1).
const DefaultSampleRate = 2.4e6

// ErrNilRand is returned when a Receiver is used without a random source.
var ErrNilRand = errors.New("sdr: Receiver.Rand must be set")

// Receiver models one RTL-SDR dongle.
type Receiver struct {
	// FrequencyBias is the dongle oscillator's bias δRx in Hz at the tuned
	// channel center. RTL-SDR crystals show tens of ppm.
	FrequencyBias float64
	// ADCBits is the quantizer resolution (8 for RTL2832U). Zero disables
	// quantization (ideal front end).
	ADCBits int
	// NoiseFigurePowerdBm adds receiver-chain noise at the given power
	// (dBm, sample-power convention); zero disables it.
	NoiseFigurePowerdBm float64
	// Rand supplies the per-capture random phase θRx and the seed for the
	// per-capture Gaussian stream below.
	Rand *rand.Rand
	// noise generates the receiver's Gaussian draws (noise-figure samples,
	// ADC dither) on a fast buffered ziggurat, reseeded from Rand once per
	// capture so captures stay individually deterministic.
	noise dsp.GaussianSource
}

// Capture is an SDR I/Q capture with timing metadata.
type Capture struct {
	// IQ is the down-converted, quantized baseband trace.
	IQ []complex128
	// Rate is the sample rate in samples/s.
	Rate float64
	// Start is the channel-timeline time of sample 0.
	Start float64
	// PhaseRx is the θRx drawn for this capture (exposed for tests; a real
	// receiver does not know it).
	PhaseRx float64
}

// TimeOf returns the channel-timeline time of sample i.
func (c *Capture) TimeOf(i int) float64 { return c.Start + float64(i)/c.Rate }

// Release returns the capture's IQ buffer to the process-wide capture pool
// and clears the slice. Call it when the capture is fully consumed (the
// gateway pipeline does, per uplink); never touch the IQ data afterwards.
// Releasing is optional — unreleased captures are ordinary garbage.
func (c *Capture) Release() {
	bufpool.Put(c.IQ)
	c.IQ = nil
}

// Downconvert processes a channel capture through the receiver chain:
// rotation by the receiver LO error exp(−j(2π·δRx·t + θRx)), optional
// receiver noise, and ADC quantization with AGC.
//
// The output buffer comes from the capture pool; call Capture.Release when
// done with it to keep the steady-state batch path allocation-free. The LO
// rotation runs on a first-order dsp.Rotator (one complex multiply per
// sample) instead of a per-sample math.Sincos.
func (r *Receiver) Downconvert(in *radio.Capture) (*Capture, error) {
	out := new(Capture)
	if err := r.DownconvertInto(out, in); err != nil {
		return nil, err
	}
	return out, nil
}

// DownconvertInto is Downconvert writing into a caller-owned Capture header,
// so a pipeline reusing one scratch Capture per worker runs the whole
// downconvert path without allocating. Any IQ buffer already in out is
// overwritten without being released — Release it first if it was pooled.
func (r *Receiver) DownconvertInto(out *Capture, in *radio.Capture) error {
	if r.Rand == nil {
		return ErrNilRand
	}
	theta := r.Rand.Float64() * 2 * math.Pi
	// All Gaussian draws for this capture (noise figure, dither) come from
	// the fast source under a single seed drawn from Rand, so the capture is
	// reproducible from Rand's state at entry.
	r.noise.Seed(r.Rand.Int63())
	buf := bufpool.GetUninit(len(in.IQ))
	rot := dsp.NewRotator(1, -theta, -r.FrequencyBias, 1/in.Rate)
	pw := rot.MulInto(buf, in.IQ)
	if r.NoiseFigurePowerdBm != 0 {
		sigma := math.Sqrt(radio.DBmToPower(r.NoiseFigurePowerdBm) / 2)
		pw = 0
		for i := range buf {
			re, im := r.noise.NormPair()
			v := buf[i] + complex(re*sigma, im*sigma)
			buf[i] = v
			pw += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	if r.ADCBits > 0 {
		quantize(buf, pw, r.ADCBits, &r.noise)
	}
	out.IQ, out.Rate, out.Start, out.PhaseRx = buf, in.Rate, in.Start, theta
	return nil
}

// quantBlock is the number of samples quantize dithers per Fill: 256
// draws, a 2 KiB stack block that stays in L1 next to the samples.
const quantBlock = 128

// quantize applies an n-bit midrise quantizer with AGC: the full scale is
// set to 4× the RMS amplitude (clipping rare peaks, like a real AGC), and
// each of I and Q is rounded to 2^(n-1) levels per polarity. One LSB RMS of
// Gaussian input-referred noise is added before rounding — real tuner/ADC
// front ends carry at least that much thermal + DNL noise, and it keeps
// quiet capture regions Gaussian instead of collapsing to exact zeros
// (which would make changepoint statistics degenerate and bias the
// PHY-timestamping detectors).
//
// pw is the capture's power Σ|x[i]|², summed in index order by the pass
// that last wrote x (the LO rotation or the noise injection), so quantize
// reads x once. The dither comes from gauss in blocks of quantBlock
// samples: sample i takes draws 2i (I) and 2i+1 (Q) of the stream, as two
// Norm calls per sample would.
//
//softlora:allocfree
func quantize(x []complex128, pw float64, bits int, gauss *dsp.GaussianSource) {
	if pw == 0 {
		return
	}
	rms := math.Sqrt(pw / float64(len(x)) / 2) // per-component RMS
	fullScale := 4 * rms
	levels := float64(int(1) << (bits - 1))
	scale := levels / fullScale
	inv := fullScale / levels
	hi := levels - 1
	var dither [2 * quantBlock]float64
	for len(x) > 0 {
		blk := x[:min(len(x), quantBlock)]
		d := dither[:2*len(blk)]
		gauss.Fill(d)
		for i, v := range blk {
			// Floor(x+0.5) rounds half-up instead of math.Round's half-away —
			// indistinguishable under the continuous dither, and it compiles
			// to a single rounding instruction where math.Round does not.
			re := math.Floor(real(v)*scale + d[2*i] + 0.5)
			im := math.Floor(imag(v)*scale + d[2*i+1] + 0.5)
			if re > hi {
				re = hi
			} else if re < -levels {
				re = -levels
			}
			if im > hi {
				im = hi
			} else if im < -levels {
				im = -levels
			}
			blk[i] = complex(re*inv, im*inv)
		}
		x = x[len(blk):]
	}
}
