// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints them with the paper's measured values
// alongside. Select a subset with -only (comma-separated ids), e.g.:
//
//	experiments -only table1,fig13,sec811
//
// An unknown id fails the run with exit status 2 and lists the known ids.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"softlora"
	"softlora/internal/experiments"
	"softlora/internal/profiling"
)

// experimentIDs are the ids -only accepts, in run order.
var experimentIDs = []string{
	"table1", "table2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
	"fig12", "fig13", "fig14", "fig15", "fig16", "sec811", "sec82", "sec32",
	"throughput", "ablations", "multigw", "fleet",
}

func main() {
	only := flag.String("only", "", "comma-separated experiment ids ("+strings.Join(experimentIDs, ",")+"); empty runs all but fleet")
	quick := flag.Bool("quick", false, "reduce trial counts for a fast pass")
	workers := flag.Int("workers", 0, "gateway batch workers for the throughput experiment (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()
	selected, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	err = profiling.Run(*cpuprofile, *memprofile, func() error {
		return run(selected, *quick, *workers)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// parseOnly turns a -only value into the set of selected ids; an empty set
// runs everything but fleet. Every id must be known: a typo such as
// sec8.1.1 must fail loudly, not select nothing and exit 0.
func parseOnly(only string) (map[string]bool, error) {
	selected := map[string]bool{}
	var unknown []string
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		switch {
		case id == "":
		case slices.Contains(experimentIDs, id):
			selected[id] = true
		default:
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment id(s) in -only: %s (known: %s)",
			strings.Join(unknown, ", "), strings.Join(experimentIDs, ", "))
	}
	return selected, nil
}

func run(selected map[string]bool, quick bool, workers int) error {
	want := func(id string) bool { return len(selected) == 0 || selected[id] }
	trials := func(full, fast int) int {
		if quick {
			return fast
		}
		return full
	}
	w := os.Stdout

	if want("table1") {
		rows, err := experiments.Table1()
		if err != nil {
			return err
		}
		experiments.PrintTable1(w, rows)
	}
	if want("table2") {
		experiments.PrintTable2(w, experiments.Table2())
	}
	if want("fig6") {
		experiments.PrintFig6(w, experiments.Fig6())
	}
	if want("fig7") {
		experiments.PrintFig7(w, experiments.Fig7())
	}
	if want("fig8") {
		experiments.PrintFig8(w, experiments.Fig8())
	}
	if want("fig9") {
		r, err := experiments.Fig9()
		if err != nil {
			return err
		}
		experiments.PrintFig9(w, r)
	}
	if want("fig10") {
		experiments.PrintFig10(w, experiments.Fig10(trials(10, 3)))
	}
	if want("fig11") {
		experiments.PrintFig11(w, experiments.Fig11())
	}
	if want("fig12") {
		r, err := experiments.Fig12()
		if err != nil {
			return err
		}
		experiments.PrintFig12(w, r)
	}
	if want("fig13") {
		rows, err := experiments.Fig13(trials(20, 5))
		if err != nil {
			return err
		}
		experiments.PrintFig13(w, rows)
	}
	if want("fig14") {
		pts, err := experiments.Fig14(trials(3, 1))
		if err != nil {
			return err
		}
		experiments.PrintFig14(w, pts)
	}
	if want("fig15") {
		r, err := experiments.Fig15()
		if err != nil {
			return err
		}
		experiments.PrintFig15(w, r)
	}
	if want("fig16") {
		rows, err := experiments.Fig16(trials(20, 6))
		if err != nil {
			return err
		}
		experiments.PrintFig16(w, rows)
	}
	if want("sec811") {
		r, err := experiments.Sec811()
		if err != nil {
			return err
		}
		experiments.PrintSec811(w, r)
	}
	if want("sec82") {
		r, err := experiments.Sec82()
		if err != nil {
			return err
		}
		experiments.PrintSec82(w, r)
	}
	if want("sec32") {
		experiments.PrintSec32(w, experiments.Sec32())
	}
	if want("throughput") {
		if err := throughput(w, trials(48, 12), workers); err != nil {
			return err
		}
	}
	if want("ablations") {
		fb, err := experiments.AblationFB(trials(3, 1))
		if err != nil {
			return err
		}
		experiments.PrintAblationFB(w, fb)
		onset, err := experiments.AblationOnset(trials(5, 2))
		if err != nil {
			return err
		}
		experiments.PrintAblationOnset(w, onset)
		ud, err := experiments.AblationUpDown(trials(4, 2))
		if err != nil {
			return err
		}
		experiments.PrintAblationUpDown(w, ud)
		experiments.PrintRTTCost(w, experiments.RTTCost())
	}
	if want("multigw") {
		rows, err := experiments.AblationMultiGateway(trials(10, 3))
		if err != nil {
			return err
		}
		experiments.PrintAblationMultiGateway(w, rows)
	}
	// The fleet durability driver is explicit opt-in (-only fleet): at
	// full scale it enrolls a million devices and issues millions of
	// verdicts, too heavy to ride in the run-everything default pass.
	if selected["fleet"] {
		// Full scale proves a million enrolled devices and millions of
		// CheckBatch verdicts with the background flusher persisting
		// through a faulty filesystem; quick keeps the same machinery at
		// a size suited to a smoke pass.
		cfg := experiments.FleetConfig{FaultRate: 0.02, Workers: workers}
		if quick {
			cfg.Devices = 50_000
			cfg.Verdicts = 250_000
		}
		r, err := experiments.Fleet(cfg)
		if err != nil {
			return err
		}
		experiments.PrintFleet(w, r)
		// Second pass in streaming multi-receiver mode: every frame is
		// delivered as 3 gateway copies split across CheckBatch calls
		// with injected duplicates, reorder and delay, and the driver
		// asserts the dedup window committed exactly one verdict per
		// frame.
		scfg := cfg
		scfg.Receivers = 3
		if !quick {
			// The streaming load carries 3 copies per frame; keep the
			// full-scale pass within the same observation budget.
			scfg.Verdicts = 1_000_000
		}
		sr, err := experiments.Fleet(scfg)
		if err != nil {
			return err
		}
		experiments.PrintFleet(w, sr)
	}
	return nil
}

// throughput is a gateway-scaling experiment beyond the paper: it renders a
// multi-device round of uplinks once, then processes it serially
// (ProcessUplink per capture) and through the concurrent batch pipeline
// (ProcessBatch) and prints uplinks/s for both.
func throughput(w *os.File, nUplinks, workers int) error {
	fmt.Fprintf(w, "\n=== Gateway batch throughput (extension) ===\n")
	rng := rand.New(rand.NewSource(experiments.Seed))
	gw, err := softlora.NewGateway(softlora.Config{
		Rand:    rng,
		FB:      softlora.FBDechirpFFT,
		Workers: workers,
	})
	if err != nil {
		return err
	}
	sim := &softlora.Simulation{Gateway: gw, NoiseFloordBm: -100, Rand: rng}
	ups := make([]softlora.SimUplink, nUplinks)
	now := 10.0
	for i := range ups {
		d := softlora.NewSimDevice(fmt.Sprintf("node-%d", i), -29+rng.Float64()*9, 40, 14, 80, 100)
		gw.EnrollDevice(d.ID, d.Transmitter.BiasHz(gw.Params()))
		d.Record(now-1, []byte{1})
		ups[i] = softlora.SimUplink{Device: d, Time: now}
		now += 2
	}
	// Render captures once so both passes process identical work.
	jobs := make([]softlora.Uplink, nUplinks)
	for i, u := range ups {
		cap, records, err := sim.RenderUplink(u.Device, u.Time)
		if err != nil {
			return err
		}
		jobs[i] = softlora.Uplink{Capture: cap, ClaimedID: u.Device.ID, Records: records}
	}
	start := time.Now()
	for _, j := range jobs {
		if _, err := gw.ProcessUplink(j.Capture, j.ClaimedID, j.Records); err != nil {
			return err
		}
	}
	serial := time.Since(start)
	start = time.Now()
	for _, r := range gw.ProcessBatch(context.Background(), jobs) {
		if r.Err != nil {
			return r.Err
		}
	}
	batch := time.Since(start)
	resolved := workers
	if resolved <= 0 {
		resolved = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(w, "uplinks: %d, workers: %d\n", nUplinks, resolved)
	fmt.Fprintf(w, "serial ProcessUplink: %8.1f ms  (%6.1f uplinks/s)\n",
		float64(serial.Microseconds())/1e3, float64(nUplinks)/serial.Seconds())
	fmt.Fprintf(w, "ProcessBatch:         %8.1f ms  (%6.1f uplinks/s)\n",
		float64(batch.Microseconds())/1e3, float64(nUplinks)/batch.Seconds())
	return nil
}
