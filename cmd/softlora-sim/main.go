// Command softlora-sim runs a simulated SoftLoRa deployment: a fleet of
// end devices with drifting clocks and biased oscillators report sensor
// data through a noisy channel to one SoftLoRa gateway, which timestamps
// every uplink at the PHY layer, tracks each device's frequency bias, and
// prints the reconstructed data timestamps.
//
//	softlora-sim -devices 4 -uplinks 5 -seed 1
//
// With -batch, each round of uplinks is processed through the gateway's
// concurrent batch pipeline (-workers bounds the pool) instead of one
// uplink at a time.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"softlora"
	"softlora/internal/netserver"
	"softlora/internal/profiling"
	"softlora/internal/radio"
)

func main() {
	devices := flag.Int("devices", 4, "number of end devices")
	uplinks := flag.Int("uplinks", 5, "uplinks per device")
	seed := flag.Int64("seed", 1, "simulation seed")
	batch := flag.Bool("batch", false, "process each round through the concurrent batch pipeline")
	workers := flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
	gateways := flag.Int("gateways", 1, "number of gateways; >1 runs the building deployment with a shared network server (frame dedup + FB fusion)")
	windowHold := flag.Float64("window-hold", 0, "streaming dedup window hold in seconds (multi-gateway only): copies are delivered one Check call at a time and the window reassembles them; 0 judges each frame immediately")
	fb := flag.String("fb", "", "FB estimator: linear-regression, least-squares, dechirp-fft, updown (empty = gateway default)")
	snapshotDir := flag.String("snapshot-dir", "", "durable bias-database directory: recover it at startup, flush dirty shards in the background, flush once more at exit")
	flushInterval := flag.Duration("flush-interval", netserver.DefaultFlushInterval, "background flush cadence when -snapshot-dir is set")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()
	err := profiling.Run(*cpuprofile, *memprofile, func() error {
		if *gateways > 1 {
			return runMulti(*devices, *uplinks, *seed, *gateways, *fb, *snapshotDir, *flushInterval, *windowHold)
		}
		return run(*devices, *uplinks, *seed, *batch, *workers, *fb, *snapshotDir, *flushInterval)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "softlora-sim: %v\n", err)
		os.Exit(1)
	}
}

// openDurable recovers the bias database from dir into srv, reports what
// the crash-safe loader found, and starts the background flusher that
// keeps dirty shards persisted while the simulation runs.
func openDurable(srv *netserver.NetworkServer, dir string, interval time.Duration) (*netserver.Flusher, error) {
	stats, err := srv.LoadDir(nil, dir)
	if err != nil {
		return nil, fmt.Errorf("recovering bias database from %s: %w", dir, err)
	}
	fmt.Printf("bias database %s: %d devices recovered (%d shards newest gen, %d older gen, %d lost, %d quarantined)\n",
		dir, stats.DevicesLoaded, stats.ShardsLoaded, stats.ShardsRecoveredOlder,
		stats.ShardsLost, stats.FilesQuarantined)
	if stats.LegacyFile != "" {
		fmt.Printf("bias database %s: migrated legacy %s; first flush rewrites it sharded\n", dir, stats.LegacyFile)
	}
	if stats.BehindManifest > 0 {
		fmt.Printf("bias database %s: %d shards behind the manifest (crashed flush; last interval lost)\n", dir, stats.BehindManifest)
	}
	return netserver.StartFlusher(srv, dir, netserver.FlusherOptions{Interval: interval})
}

// closeDurable flushes whatever is still dirty and stops the flusher.
func closeDurable(fl *netserver.Flusher) error {
	if fl == nil {
		return nil
	}
	if err := fl.Close(); err != nil {
		return fmt.Errorf("final bias-database flush: %w", err)
	}
	st := fl.Stats()
	fmt.Printf("\nbias database %s: flushed (%d cycles, %d shard snapshots, %d errors)\n",
		fl.Dir(), st.Cycles, st.ShardsFlushed, st.Errors)
	return nil
}

func run(nDevices, nUplinks int, seed int64, batch bool, workers int, fb string, snapshotDir string, flushInterval time.Duration) error {
	rng := rand.New(rand.NewSource(seed))
	gw, err := softlora.NewGateway(softlora.Config{
		Rand:    rng,
		Workers: workers,
		FB:      softlora.FBMethod(fb),
	})
	if err != nil {
		return err
	}
	var flusher *netserver.Flusher
	if snapshotDir != "" {
		if flusher, err = openDurable(gw.NetworkServer(), snapshotDir, flushInterval); err != nil {
			return err
		}
	}
	sim := &softlora.Simulation{Gateway: gw, NoiseFloordBm: -100, Rand: rng}

	fmt.Printf("SoftLoRa simulated deployment: %d devices, %d uplinks each\n", nDevices, nUplinks)
	fmt.Printf("channel: %.2f MHz, SF%d, %g kHz\n\n",
		gw.Params().CenterFrequency/1e6, gw.Params().SF, gw.Params().Bandwidth/1e3)

	devs := make([]*softlora.SimDevice, nDevices)
	for i := range devs {
		biasPPM := -29 + rng.Float64()*9 // RN2483-like −29..−20 ppm
		driftPPM := 30 + rng.Float64()*20
		loss := 70 + rng.Float64()*30
		dist := 50 + rng.Float64()*500
		devs[i] = softlora.NewSimDevice(fmt.Sprintf("node-%d", i), biasPPM, driftPPM, 14, loss, dist)
		fmt.Printf("%s: oscillator %.1f ppm, clock drift %.0f ppm, path loss %.0f dB\n",
			devs[i].ID, biasPPM, driftPPM, loss)
	}
	fmt.Println()

	printReport := func(t float64, id string, report *softlora.UplinkReport) {
		fmt.Printf("t=%7.1f %s verdict=%-9s bias=%8.2f ppm arrival=%.6f data@[",
			t, id, report.Verdict, report.FrequencyBiasPPM, report.ArrivalTime)
		for i, ts := range report.Timestamps {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%.3f", ts)
		}
		fmt.Println("]")
	}

	now := 10.0
	for round := 0; round < nUplinks; round++ {
		if batch {
			// Queue the whole round, then fan it across the worker pool.
			ups := make([]softlora.SimUplink, len(devs))
			for i, d := range devs {
				d.Record(now-7.5, []byte{byte(round)})
				d.Record(now-2.5, []byte{byte(round + 1)})
				ups[i] = softlora.SimUplink{Device: d, Time: now}
				now += 13
			}
			results, err := sim.UplinkBatch(context.Background(), ups)
			if err != nil {
				return err
			}
			for i, r := range results {
				if r.Err != nil {
					return fmt.Errorf("%s uplink: %w", ups[i].Device.ID, r.Err)
				}
				printReport(ups[i].Time, ups[i].Device.ID, r.Report)
			}
			continue
		}
		for _, d := range devs {
			// Two sensor readings, then transmit.
			d.Record(now-7.5, []byte{byte(round)})
			d.Record(now-2.5, []byte{byte(round + 1)})
			report, _, err := sim.Uplink(d, now)
			if err != nil {
				return fmt.Errorf("%s uplink: %w", d.ID, err)
			}
			printReport(now, d.ID, report)
			now += 13
		}
	}

	fmt.Println("\nlearned bias database:")
	for _, d := range devs {
		mean, frames, ok := gw.DeviceBias(d.ID)
		if ok {
			fmt.Printf("  %s: %.2f kHz over %d frames\n", d.ID, mean/1e3, frames)
		}
	}
	return closeDurable(flusher)
}

// runMulti drives the multi-gateway deployment: devices spread through the
// paper's building transmit to a fleet of top-floor gateways feeding one
// network server, which dedups each frame and fuses the receivers' FB
// estimates into one verdict.
func runMulti(nDevices, nUplinks int, seed int64, nGateways int, fb string, snapshotDir string, flushInterval time.Duration, windowHold float64) error {
	rng := rand.New(rand.NewSource(seed))
	b := radio.DefaultBuilding()
	if fb == "" {
		// The building's links run at −5..13 dB SNR where the default
		// linear-regression estimator degrades; default to the dechirp-FFT
		// estimator, which holds its accuracy there.
		fb = string(softlora.FBDechirpFFT)
	}
	var server *netserver.NetworkServer
	if windowHold > 0 {
		// Streaming mode: the shared server holds each frame open so
		// copies delivered in separate Check calls fuse before judgment.
		server = netserver.New(netserver.Config{Window: netserver.WindowConfig{
			Hold:         windowHold,
			MaxReceivers: nGateways,
		}})
	}
	sim, err := softlora.NewMultiGatewaySimulation(b, nGateways, softlora.Config{
		Rand:   rng,
		Server: server,
		// The despreading onset detector keeps timestamp error (which
		// couples into the FB estimate as δ' = δ + k·Δτ) at microseconds
		// down to ~−10 dB, where the building's far links live.
		Onset: softlora.OnsetDechirp,
		FB:    softlora.FBMethod(fb),
	})
	if err != nil {
		return err
	}
	var flusher *netserver.Flusher
	if snapshotDir != "" {
		if flusher, err = openDurable(sim.Server, snapshotDir, flushInterval); err != nil {
			return err
		}
	}
	params := sim.Sites[0].Gateway.Params()
	fmt.Printf("SoftLoRa multi-gateway deployment: %d devices, %d uplinks each, %d gateways\n",
		nDevices, nUplinks, nGateways)
	fmt.Printf("channel: %.2f MHz, SF%d, %g kHz\n", params.CenterFrequency/1e6, params.SF, params.Bandwidth/1e3)
	for i, s := range sim.Sites {
		fmt.Printf("gw-%d at column %s floor %d\n", i, s.Position.Label, s.Position.Floor)
	}
	fmt.Println()

	cols := b.Columns()
	devs := make([]*softlora.SimDevice, nDevices)
	positions := make([]radio.Position, nDevices)
	for i := range devs {
		biasPPM := -29 + rng.Float64()*9 // RN2483-like −29..−20 ppm
		driftPPM := 30 + rng.Float64()*20
		devs[i] = softlora.NewSimDevice(fmt.Sprintf("node-%d", i), biasPPM, driftPPM, 14, 0, 0)
		pos, err := b.Column(cols[i%len(cols)], 1+i%3)
		if err != nil {
			return err
		}
		positions[i] = pos
		// A device recovered from the snapshot directory keeps its learned
		// record; re-enrolling would discard the tracked deviation.
		if _, known := sim.Server.Record(devs[i].ID); !known {
			sim.Server.Enroll(devs[i].ID, devs[i].Transmitter.BiasHz(params), 10)
		}
		fmt.Printf("%s at column %s floor %d: oscillator %.1f ppm\n",
			devs[i].ID, pos.Label, pos.Floor, biasPPM)
	}
	fmt.Println()

	printCommit := func(fv netserver.FrameVerdict) {
		tag := "commit"
		if fv.Revised {
			tag = "revise"
		}
		fmt.Printf("%s t=%7.1f %s verdict=%-9s fused bias=%8.2f ppm via %s (%d rx, %d outliers)\n",
			tag, fv.ArrivalTime, fv.DeviceID, fv.Verdict,
			params.PPM(fv.FBHz), fv.GatewayID, fv.Receivers, fv.OutliersRejected)
	}

	now := 10.0
	for round := 0; round < nUplinks; round++ {
		for i, d := range devs {
			d.Record(now-7.5, []byte{byte(round)})
			d.Record(now-2.5, []byte{byte(round + 1)})
			if windowHold > 0 {
				// Streaming delivery: one Check call per gateway copy.
				// The window fuses them and the verdict surfaces from a
				// later poll once the hold expires (or the frame fills).
				report, _, err := sim.Observe(d, positions[i], now)
				if err != nil {
					return fmt.Errorf("%s uplink: %w", d.ID, err)
				}
				for _, o := range report.Observations {
					evs, err := sim.Server.CheckBatch([]netserver.PHYObservation{o})
					if err != nil {
						return fmt.Errorf("%s uplink: %w", d.ID, err)
					}
					for _, fv := range evs {
						printCommit(fv)
					}
				}
				now += 13
				continue
			}
			report, _, err := sim.Uplink(d, positions[i], now)
			if err != nil {
				return fmt.Errorf("%s uplink: %w", d.ID, err)
			}
			fmt.Printf("t=%7.1f %s verdict=%-9s fused bias=%8.2f ppm via %s (%d rx, %d outliers)\n",
				now, d.ID, report.Verdict, params.PPM(report.Frame.FBHz),
				report.Frame.GatewayID, report.Frame.Receivers, report.Frame.OutliersRejected)
			now += 13
		}
	}
	if windowHold > 0 {
		// End of traffic: advance the observation clock past the hold so
		// every still-pending frame commits and its verdict prints.
		for _, fv := range sim.Server.AdvanceWindow(now + windowHold) {
			printCommit(fv)
		}
	}
	st := sim.Server.Stats()
	fmt.Printf("\nnetwork server: %d frames judged, %d observations, %d duplicates suppressed\n",
		st.FramesChecked, st.Observations, st.DuplicatesSuppressed)
	if windowHold > 0 || st.WindowMerged+st.LateObservations+st.WindowShed+st.GatewaysQuarantined > 0 {
		fmt.Printf("window: %d merged across calls, %d late reconciled, %d revised, %d shed, %d gateways quarantined\n",
			st.WindowMerged, st.LateObservations, st.VerdictsRevised, st.WindowShed, st.GatewaysQuarantined)
	}
	return closeDurable(flusher)
}
