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

// Fig14Point is one SNR point of the least-squares FB-estimation error
// curve, for both noise models.
type Fig14Point struct {
	SNRdB           float64
	GaussianErrorHz float64
	RealErrorHz     float64
}

// Fig14 measures the least-squares estimator's error under calibrated
// Gaussian noise and under the colored/impulsive "real building noise"
// model, like the paper's Fig. 14 (errors ≤ 120 Hz down to −25 dB).
func Fig14(trials int) ([]Fig14Point, error) {
	if trials <= 0 {
		trials = 3
	}
	rng := newRand(14)
	const rate = sdr.DefaultSampleRate
	p := lora.DefaultParams(7)
	const delta = -21.3e3
	spec := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, FrequencyOffset: delta, Phase: 1.3}
	clean := spec.Synthesize(rate)
	sigPower := dsp.Power(clean)
	var out []Fig14Point
	for snr := -25.0; snr <= 10; snr += 5 {
		var gSum, rSum float64
		for trial := 0; trial < trials; trial++ {
			noisePower := sigPower / dsp.FromdB(snr)
			run := func(noise []complex128) (float64, error) {
				iq := make([]complex128, len(clean))
				copy(iq, clean)
				for i := range iq {
					iq[i] += noise[i]
				}
				// The gateway checks frames against a claimed device, so
				// the search is centered on that device's tracked bias
				// with a generous ±3 kHz window.
				// Full-rate samples: the error floor is the single-chirp
				// Cramér-Rao bound (~110 Hz at −20 dB, ~190 Hz at −25 dB
				// for 2457 samples), which at −25 dB lies above the paper's
				// ≤120 Hz claim.
				est := &core.LeastSquaresEstimator{
					Params:        p,
					Decimation:    1,
					NoisePower:    noisePower,
					DeltaCenterHz: delta,
					DeltaBoundHz:  3e3,
					Rand:          rng,
					DE:            dsp.DEConfig{MaxGenerations: 150, PopulationSize: 40, Rand: rng},
				}
				e, err := est.EstimateFB(iq, rate)
				if err != nil {
					return 0, err
				}
				return math.Abs(e.DeltaHz - delta), nil
			}
			gauss := dsp.GaussianNoise(rng, len(clean), noisePower)
			gErr, err := run(gauss)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig 14 gaussian @%g dB: %w", snr, err)
			}
			real_ := dsp.ColoredNoise(rng, len(clean), noisePower)
			rErr, err := run(real_)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig 14 real @%g dB: %w", snr, err)
			}
			gSum += gErr
			rSum += rErr
		}
		out = append(out, Fig14Point{
			SNRdB:           snr,
			GaussianErrorHz: gSum / float64(trials),
			RealErrorHz:     rSum / float64(trials),
		})
	}
	return out, nil
}

// PrintFig14 renders the estimation-error series.
func PrintFig14(w io.Writer, pts []Fig14Point) {
	section(w, "Fig. 14: least-squares FB estimation error vs SNR")
	fmt.Fprintf(w, "%8s %14s %14s\n", "SNR(dB)", "gaussian(Hz)", "real-noise(Hz)")
	for _, p := range pts {
		fmt.Fprintf(w, "%8.0f %14.1f %14.1f\n", p.SNRdB, p.GaussianErrorHz, p.RealErrorHz)
	}
	fmt.Fprintf(w, "paper: below 120 Hz (0.14 ppm) down to −25 dB for both noise types\n")
}
