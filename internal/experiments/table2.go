package experiments

import (
	"fmt"
	"io"
	"math"

	"softlora/internal/core"
	"softlora/internal/dsp"
	"softlora/internal/lora"
	"softlora/internal/sdr"
)

// Table2Result holds the onset error upper bounds (µs) for the envelope and
// AIC detectors on I and Q data over ten trials, like the paper's Table 2.
type Table2Result struct {
	EnvI, EnvQ, AICI, AICQ []float64
}

// onsetTrial builds one high-SNR capture with a known fractional-sample
// onset and returns the capture and the true onset sample position.
func onsetTrial(rng interface {
	Float64() float64
	NormFloat64() float64
}, rate float64) (iq []complex128, trueOnset float64) {
	p := lora.DefaultParams(7)
	spec := lora.ChirpSpec{
		SF:              p.SF,
		Bandwidth:       p.Bandwidth,
		FrequencyOffset: -22e3,
		Phase:           rng.Float64() * 2 * math.Pi,
	}
	lead := int(2e-3 * rate)
	total := lead + int(spec.Duration()*rate) + 64
	iq = make([]complex128, total)
	onset := (float64(lead) + rng.Float64()) / rate
	spec.AddTo(iq, rate, onset)
	for i := range iq {
		iq[i] += complex(rng.NormFloat64()*0.005, rng.NormFloat64()*0.005)
	}
	return iq, onset * rate
}

// Table2 runs the ten onset-accuracy trials of the paper's Table 2 at the
// RTL-SDR rate.
func Table2() Table2Result {
	rng := newRand(2)
	const rate = sdr.DefaultSampleRate
	var res Table2Result
	for trial := 0; trial < 10; trial++ {
		iq, want := onsetTrial(rng, rate)
		measure := func(det core.OnsetDetector) float64 {
			on, err := det.DetectOnset(iq, rate)
			if err != nil {
				return math.NaN()
			}
			// Error upper bound: distance from the detected sample to the
			// true (continuous) onset time (§6.2).
			return math.Abs(float64(on.Sample)-want) / rate * 1e6
		}
		res.EnvI = append(res.EnvI, measure(&core.EnvelopeDetector{Component: core.ComponentI}))
		res.EnvQ = append(res.EnvQ, measure(&core.EnvelopeDetector{Component: core.ComponentQ}))
		res.AICI = append(res.AICI, measure(&core.AICDetector{Component: core.ComponentI}))
		res.AICQ = append(res.AICQ, measure(&core.AICDetector{Component: core.ComponentQ}))
	}
	return res
}

// PrintTable2 renders the trial table plus the paper's summary claim.
func PrintTable2(w io.Writer, res Table2Result) {
	section(w, "Table 2: onset error upper bound (µs), 10 trials")
	row := func(name string, xs []float64) {
		fmt.Fprintf(w, "%-10s", name)
		for _, v := range xs {
			fmt.Fprintf(w, " %5.1f", v)
		}
		fmt.Fprintf(w, "  | mean %.2f\n", dsp.Mean(xs))
	}
	row("ENV I", res.EnvI)
	row("ENV Q", res.EnvQ)
	row("AIC I", res.AICI)
	row("AIC Q", res.AICQ)
	fmt.Fprintf(w, "paper: ENV 1.9-9.8 µs; AIC 0.6-1.9 µs (AIC < 2 µs)\n")
}
