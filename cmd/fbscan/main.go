// Command fbscan analyzes a raw I/Q capture (interleaved little-endian
// float32, the GNU Radio / rtl_sdr interchange format) with the SoftLoRa
// gateway's own PHY stage (softlora.Gateway.ObserveIQ): it locates the LoRa
// preamble onset with the AIC detector, timestamps it, and estimates the
// transmitter's frequency bias with the estimator -fb names (Config.FB's
// names; updown needs a capture that runs through the SFD).
//
// Generate a synthetic test capture, then scan it:
//
//	fbscan gen -out capture.iq -bias-ppm -24 -snr 10
//	fbscan scan capture.iq
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"softlora"
	"softlora/internal/dsp"
	"softlora/internal/iqfile"
	"softlora/internal/lora"
	"softlora/internal/sdr"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Stdout, os.Args[2:])
	case "scan":
		err = runScan(os.Stdout, os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fbscan: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fbscan gen  -out FILE [-sf N] [-bias-ppm P] [-snr DB] [-seed N]
  fbscan scan [-sf N] [-fb linear-regression|least-squares|dechirp-fft|updown] [-seed N] FILE`)
}

func runGen(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "capture.iq", "output file")
	sf := fs.Int("sf", 7, "spreading factor")
	biasPPM := fs.Float64("bias-ppm", -24, "transmitter oscillator bias (ppm)")
	snr := fs.Float64("snr", 15, "capture SNR (dB)")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	p := lora.DefaultParams(*sf)
	spec := lora.ChirpSpec{
		SF:              p.SF,
		Bandwidth:       p.Bandwidth,
		FrequencyOffset: p.HzFromPPM(*biasPPM),
		Phase:           rng.Float64() * 2 * math.Pi,
	}
	const rate = sdr.DefaultSampleRate
	lead := int(2e-3 * rate)
	// Two chirps: one for the timestamp, one for the FB (§5.1).
	total := lead + 2*int(spec.Duration()*rate) + 64
	iq := make([]complex128, total)
	onset := float64(lead) / rate
	spec.AddTo(iq, rate, onset)
	second := spec
	second.Phase = spec.PhaseAt(spec.Duration())
	second.AddTo(iq, rate, onset+spec.Duration())
	noise := dsp.GaussianNoise(rng, total, 1)
	g := dsp.NoiseForSNR(1, 1, *snr)
	for i := range iq {
		iq[i] += noise[i] * complex(g, 0)
	}
	meta := iqfile.Metadata{
		SampleRate:      rate,
		CenterFrequency: p.CenterFrequency,
		Description:     fmt.Sprintf("synthetic SF%d capture, bias %.1f ppm, SNR %.0f dB", *sf, *biasPPM, *snr),
	}
	if err := iqfile.Save(*out, iq, meta); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d samples @%.1f Msps, true onset %.6f s, true bias %.1f ppm (%.0f Hz)\n",
		*out, total, rate/1e6, onset, *biasPPM, p.HzFromPPM(*biasPPM))
	return nil
}

func runScan(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	sf := fs.Int("sf", 7, "spreading factor")
	fb := fs.String("fb", string(softlora.FBLinearRegression), "FB estimator: linear-regression, least-squares, dechirp-fft, updown (a capture through the SFD)")
	seed := fs.Int64("seed", 1, "random seed (least-squares estimator)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("scan needs exactly one capture file")
	}
	iq, meta, err := iqfile.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	rate := meta.SampleRate
	if rate == 0 {
		rate = sdr.DefaultSampleRate
		fmt.Fprintf(os.Stderr, "no metadata sidecar; assuming %.1f Msps\n", rate/1e6)
	}
	p := lora.DefaultParams(*sf)
	if meta.CenterFrequency != 0 {
		p.CenterFrequency = meta.CenterFrequency
	}
	gw, err := softlora.NewGateway(softlora.Config{
		Params:     p,
		SampleRate: rate,
		FB:         softlora.FBMethod(*fb),
		Rand:       rand.New(rand.NewSource(*seed)),
	})
	if err != nil {
		return err
	}
	obs, err := gw.ObserveIQ(&sdr.Capture{IQ: iq, Rate: rate, Start: meta.StartTime}, "", "")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "capture: %d samples @%.1f Msps", len(iq), rate/1e6)
	if meta.Description != "" {
		fmt.Fprintf(w, " (%s)", meta.Description)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "preamble onset: sample %d = %.6f s (capture time %.6f s)\n",
		obs.OnsetSample, float64(obs.OnsetSample)/rate, obs.ArrivalTime)
	fmt.Fprintf(w, "frequency bias [%s]: %.1f Hz = %.3f ppm of %.2f MHz\n",
		*fb, obs.FBHz, p.PPM(obs.FBHz), p.CenterFrequency/1e6)
	return nil
}
