// Building monitoring: the paper's Fig. 15 deployment — environment
// sensors spread across a 190 m six-floor concrete building report to one
// SoftLoRa gateway. The example surveys the SNR at every sensor position,
// runs sync-free timestamped uplinks from a few representative sensors, and
// prints per-position timestamping accuracy.
//
//	go run ./examples/building
package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"softlora"
	"softlora/internal/radio"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "building: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	rng := rand.New(rand.NewSource(15))
	b := radio.DefaultBuilding()
	gwPos := b.FixedNode() // gateway where the paper's fixed node sits

	// Low floors of section C sit near 0 dB SNR, where the linear-
	// regression estimator degrades — use the least-squares estimator,
	// exactly the paper's low-SNR design point (§7.1.2). Onset error
	// couples into the FB estimate as δ' = δ + k·Δτ, and the AIC onset
	// detector drifts at these SNRs far enough to push a genuine sensor's
	// FB out of its learned band; the despreading onset detector keeps
	// Δτ at microseconds there.
	gw, err := softlora.NewGateway(softlora.Config{
		Rand:  rng,
		Onset: softlora.OnsetDechirp,
		FB:    softlora.FBLeastSquares,
	})
	if err != nil {
		return err
	}
	sim := &softlora.Simulation{Gateway: gw, NoiseFloordBm: b.NoiseFloordBm, Rand: rng}

	fmt.Fprintln(w, "Building monitoring deployment (Fig. 15 site)")
	fmt.Fprintf(w, "gateway at %s floor %d; %d candidate sensor positions\n\n",
		gwPos.Label, gwPos.Floor, len(b.SurveyPositions()))

	// Representative sensors: same section, across a junction, far corner.
	type site struct {
		column string
		floor  int
	}
	sites := []site{{"A3", 3}, {"B2", 5}, {"C2", 1}, {"C3", 6}}
	now := 60.0
	for i, s := range sites {
		pos, err := b.Column(s.column, s.floor)
		if err != nil {
			return err
		}
		loss := b.LossdB(gwPos, pos)
		snr := b.SNRdB(gwPos, pos, 14)
		id := fmt.Sprintf("sensor-%s%d", s.column, s.floor)
		dev := softlora.NewSimDevice(id, -28+float64(i)*2, 35, 14, loss, b.Distance(gwPos, pos))

		// The gateway learns each device's bias at run time from its first
		// frames in the absence of attacks (§7.2), so the learned record
		// includes the pipeline's own estimation jitter.
		for e := 0; e < 3; e++ {
			dev.Record(now-25+float64(e), nil)
			if _, _, err := sim.Uplink(dev, now-24+float64(e)); err != nil {
				return err
			}
		}

		// One reading 20 s before the checked uplink.
		truth := now - 20
		dev.Record(truth, []byte{byte(i)})
		report, _, err := sim.Uplink(dev, now)
		if err != nil {
			return err
		}
		if !report.Accepted || len(report.Timestamps) == 0 {
			fmt.Fprintf(w, "%s (floor %d, %.0f m, SNR %.1f dB): verdict=%s — frame rejected\n",
				id, s.floor, b.Distance(gwPos, pos), snr, report.Verdict)
			now += 30
			continue
		}
		tsErr := math.Abs(report.Timestamps[0]-truth) * 1e3
		fmt.Fprintf(w, "%s (floor %d, %.0f m, SNR %.1f dB): verdict=%s bias=%.1f ppm, datum error %.2f ms\n",
			id, s.floor, b.Distance(gwPos, pos), snr, report.Verdict, report.FrequencyBiasPPM, tsErr)
		now += 30
	}

	// Survey summary across all accessible positions.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, pos := range b.SurveyPositions() {
		if pos == gwPos {
			continue
		}
		v := b.SNRdB(gwPos, pos, 14)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	fmt.Fprintf(w, "\nSNR survey across the building: %.1f to %.1f dB (paper: −1 to 13 dB)\n", lo, hi)
	return nil
}
