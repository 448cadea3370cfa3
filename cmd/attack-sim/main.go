// Command attack-sim demonstrates the frame delay attack end to end in the
// paper's six-floor building and shows the difference between a naive
// synchronization-free gateway (fooled: data timestamp wrong by τ) and a
// SoftLoRa gateway (replay detected via the frequency-bias change).
//
//	attack-sim -delay 30 -seed 1
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"softlora"
	"softlora/internal/attack"
	"softlora/internal/chip"
	"softlora/internal/core"
	"softlora/internal/lora"
	"softlora/internal/netserver"
	"softlora/internal/radio"
	"softlora/internal/sdr"
	"softlora/internal/timestamp"
)

func main() {
	delay := flag.Float64("delay", 30, "injected delay τ in seconds")
	seed := flag.Int64("seed", 1, "simulation seed")
	gateways := flag.Int("gateways", 1, "number of gateways hearing the replay; >1 routes the verdict through a shared network server (dedup + FB fusion)")
	flag.Parse()
	if err := run(*delay, *seed, *gateways); err != nil {
		fmt.Fprintf(os.Stderr, "attack-sim: %v\n", err)
		os.Exit(1)
	}
}

func run(tau float64, seed int64, gateways int) error {
	rng := rand.New(rand.NewSource(seed))
	b := radio.DefaultBuilding()
	device := b.FixedNode()
	gwPos, _ := b.Column("C3", 6)
	loss := b.LossdB(device, gwPos)

	p := lora.DefaultParams(8)
	p.LowDataRateOptimize = false

	gw, err := softlora.NewGateway(softlora.Config{Params: p, Rand: rng})
	if err != nil {
		return err
	}
	const deviceBias = -21.7e3
	gw.EnrollDevice("node-1", deviceBias)

	fmt.Println("=== Frame delay attack in the 6-floor building (§8.1.1) ===")
	fmt.Printf("device: section A floor 3 | gateway: C3 floor 6 | path loss %.1f dB | SF%d\n",
		loss, p.SF)

	receiver := chip.NewReceiver(p)
	w1, w2, _ := receiver.Windows(20)
	fmt.Printf("effective attack window: (%.1f, %.1f] ms after frame onset\n", w1*1e3, w2*1e3)

	scn := &attack.Scenario{
		Params:     p,
		SampleRate: sdr.DefaultSampleRate,
		Rand:       rng,
		Gateway:    receiver,

		DeviceTxPowerdBm:    14,
		DeviceGatewayLossdB: loss,

		JammerTxPowerdBm:    14.1,
		JammerGatewayLossdB: 40,
		JamOnsetAfter:       attack.PickJamOnset(receiver, 20, 0.5),

		DeviceEaveLossdB:      40,
		JammerEaveLossdB:      loss,
		EaveNoiseFloordBm:     b.NoiseFloordBm,
		ReplayerGatewayLossdB: 40,
		Replayer: attack.Replayer{
			FrequencyBiasHz: -620,
			TxPowerdBm:      7,
			Delay:           tau,
			JitterHz:        20,
			Rand:            rng,
		},
	}

	const t0 = 100.0
	frame := lora.Frame{Params: p, Payload: []byte("meter=5210;valve=ok")}
	res, err := scn.Execute(frame, lora.Impairments{FrequencyBias: deviceBias, InitialPhase: 1.1}, t0)
	if err != nil {
		return err
	}
	fmt.Printf("\n[1] jamming onset %+.1f ms → chip outcome: %v (stealthy=%v)\n",
		scn.JamOnsetAfter*1e3, res.JamOutcome, res.Stealthy)
	fmt.Printf("[2] eavesdropper SINR %.1f dB → waveform recorded (usable=%v)\n",
		res.EavesdropSINRdB, res.RecordingUsable)
	fmt.Printf("[3] replay after τ=%.1f s at 7 dBm (RSSI %.1f dBm, inconspicuous=%v)\n",
		res.InjectedDelay, res.ReplayRSSIdBm, res.RSSIInconspicuous)

	if gateways > 1 {
		return multiGatewayVerdict(b, p, rng, res.ReplayEmission, deviceBias, tau, t0, gateways)
	}

	// Gateway processes the replayed frame. The datum was captured 5 s
	// before the original transmission.
	sim := &softlora.Simulation{Gateway: gw, NoiseFloordBm: b.NoiseFloordBm, Rand: rng}
	cap, err := sim.CaptureEmission(res.ReplayEmission)
	if err != nil {
		return err
	}
	rec := timestamp.FrameRecord{Elapsed: 5000}
	report, err := gw.ProcessUplink(cap, "node-1", []timestamp.FrameRecord{rec})
	if err != nil {
		return err
	}

	trueTime := t0 - 5
	naive := report.ArrivalTime - 5
	fmt.Printf("\nnaive sync-free gateway:   datum stamped %.3f s (true %.3f) → error %.1f s = τ\n",
		naive, trueTime, naive-trueTime)
	fmt.Printf("SoftLoRa gateway:          FB %.0f Hz vs enrolled %.0f Hz → verdict %s\n",
		report.FrequencyBiasHz, deviceBias, report.Verdict)
	if report.Verdict == softlora.VerdictReplay {
		fmt.Println("SoftLoRa drops the replayed frame: timestamps cannot be spoofed.")
	} else {
		fmt.Println("WARNING: replay was not detected!")
	}
	return nil
}

// multiGatewayVerdict runs the replayed emission through a fleet of
// top-floor gateways feeding one network server: every receiver that locks
// onto the frame contributes a PHY observation, the server dedups the
// copies and fuses the FB estimates, and the replay is flagged exactly
// once. The replayer transmits next to the first gateway; the other sites
// hear it across the building.
func multiGatewayVerdict(b *radio.Building, p lora.Params, rng *rand.Rand, replay radio.Emission, deviceBias, tau, t0 float64, gateways int) error {
	multi, err := softlora.NewMultiGatewaySimulation(b, gateways, softlora.Config{
		Params: p,
		Rand:   rng,
		Onset:  softlora.OnsetDechirp,
		FB:     softlora.FBDechirpFFT,
	})
	if err != nil {
		return err
	}
	multi.Server.Enroll("node-1", deviceBias, 10)
	fmt.Printf("\n=== Network-server verdict across %d gateways ===\n", gateways)
	var obs []netserver.PHYObservation
	for i, site := range multi.Sites {
		em := replay
		if i > 0 {
			// The replayer sits next to gw-0; the other sites hear it
			// through the building.
			em.PathLossdB = b.LossdB(multi.Sites[0].Position, site.Position)
			em.Distance = b.Distance(multi.Sites[0].Position, site.Position)
		}
		sim := &softlora.Simulation{Gateway: site.Gateway, NoiseFloordBm: b.NoiseFloordBm, Rand: rng}
		cap, err := sim.CaptureEmission(em)
		if err != nil {
			return err
		}
		o, err := site.Gateway.Observe(cap, "node-1", "replayed-frame")
		if err != nil {
			fmt.Printf("gw-%d (%s fl %d): no lock (%v)\n", i, site.Position.Label, site.Position.Floor, err)
			continue
		}
		fmt.Printf("gw-%d (%s fl %d): FB %.0f Hz (jitter ±%.0f Hz)\n",
			i, site.Position.Label, site.Position.Floor, o.FBHz, o.JitterHz)
		obs = append(obs, o)
	}
	if len(obs) == 0 {
		return fmt.Errorf("no gateway received the replayed frame")
	}
	fv, err := multi.Server.CheckFrame(obs)
	if err != nil {
		return err
	}
	st := multi.Server.Stats()
	fmt.Printf("fused: FB %.0f Hz vs enrolled %.0f Hz → verdict %s (heard by %d, judged once, %d duplicates suppressed)\n",
		fv.FBHz, deviceBias, fv.Verdict, fv.Receivers, st.DuplicatesSuppressed)
	if fv.Verdict == core.VerdictReplay {
		fmt.Println("SoftLoRa drops the replayed frame fleet-wide: one verdict, no duplicate alarms.")
	} else {
		fmt.Println("WARNING: replay was not detected!")
	}
	return nil
}
