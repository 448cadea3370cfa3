package softlora

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates the experiment from the simulated substrates and, on the
// first iteration, prints the same rows/series the paper reports (paper
// values alongside). Run:
//
//	go test -bench=. -benchmem
//
// cmd/experiments prints the same tables without the timing harness.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"softlora/internal/core"
	"softlora/internal/dsp"
	"softlora/internal/experiments"
	"softlora/internal/lora"
	"softlora/internal/netserver"
	"softlora/internal/radio"
	"softlora/internal/sdr"
)

func BenchmarkTable1JammingWindows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintTable1(os.Stdout, rows)
		}
	}
}

func BenchmarkTable2OnsetError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table2()
		if i == 0 {
			experiments.PrintTable2(os.Stdout, res)
		}
	}
}

func BenchmarkFig6ChirpSpectrogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6()
		if i == 0 {
			experiments.PrintFig6(os.Stdout, r)
		}
	}
}

func BenchmarkFig7PhaseShapes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7()
		if i == 0 {
			experiments.PrintFig7(os.Stdout, r)
		}
	}
}

func BenchmarkFig8BiasedChirp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8()
		if i == 0 {
			experiments.PrintFig8(os.Stdout, r)
		}
	}
}

func BenchmarkFig9OnsetDetectors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintFig9(os.Stdout, r)
		}
	}
}

func BenchmarkFig10AICvsSNR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig10(6)
		if i == 0 {
			experiments.PrintFig10(os.Stdout, pts)
		}
	}
}

func BenchmarkFig11BiasShapes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11()
		if i == 0 {
			experiments.PrintFig11(os.Stdout, r)
		}
	}
}

func BenchmarkFig12LinearRegressionFB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintFig12(os.Stdout, r)
		}
	}
}

func BenchmarkFig13FleetFB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13(8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintFig13(os.Stdout, rows)
		}
	}
}

func BenchmarkFig14LSvsSNR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig14(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintFig14(os.Stdout, pts)
		}
	}
}

func BenchmarkFig15Building(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintFig15(os.Stdout, r)
		}
	}
}

func BenchmarkFig16TxPowerFB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig16(8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintFig16(os.Stdout, rows)
		}
	}
}

func BenchmarkSec811FullAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sec811()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintSec811(os.Stdout, r)
		}
	}
}

func BenchmarkSec82Campus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sec82()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintSec82(os.Stdout, r)
		}
	}
}

func BenchmarkSec32SyncOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Sec32()
		if i == 0 {
			experiments.PrintSec32(os.Stdout, r)
		}
	}
}

func BenchmarkAblationFBEstimators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationFB(2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintAblationFB(os.Stdout, rows)
		}
	}
}

func BenchmarkAblationOnsetDetectors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationOnset(3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintAblationOnset(os.Stdout, rows)
		}
	}
}

func BenchmarkSec44RTTCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RTTCost()
		if i == 0 {
			experiments.PrintRTTCost(os.Stdout, r)
		}
	}
}

// --- Microbenchmarks of the core algorithms (CPU cost on the gateway) ---

func benchChirp(rate float64) []complex128 {
	p := lora.DefaultParams(7)
	spec := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, FrequencyOffset: -22e3, Phase: 0.8}
	iq := spec.Synthesize(rate)
	rng := rand.New(rand.NewSource(7))
	noise := dsp.GaussianNoise(rng, len(iq), 0.01)
	for i := range iq {
		iq[i] += noise[i]
	}
	return iq
}

func BenchmarkOnsetAIC(b *testing.B) {
	const rate = sdr.DefaultSampleRate
	rng := rand.New(rand.NewSource(8))
	p := lora.DefaultParams(7)
	spec := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, FrequencyOffset: -22e3}
	lead := int(2e-3 * rate)
	iq := make([]complex128, lead+int(spec.Duration()*rate)+64)
	spec.AddTo(iq, rate, float64(lead)/rate)
	noise := dsp.GaussianNoise(rng, len(iq), 0.01)
	for i := range iq {
		iq[i] += noise[i]
	}
	det := &core.AICDetector{LowPassCutoffHz: core.DefaultPrefilterCutoffHz}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.DetectOnset(iq, rate); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFBLinearRegression(b *testing.B) {
	iq := benchChirp(sdr.DefaultSampleRate)
	est := &core.LinearRegressionEstimator{Params: lora.DefaultParams(7)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateFB(iq, sdr.DefaultSampleRate); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFBLeastSquaresDE(b *testing.B) {
	iq := benchChirp(sdr.DefaultSampleRate)
	rng := rand.New(rand.NewSource(9))
	est := &core.LeastSquaresEstimator{Params: lora.DefaultParams(7), Decimation: 4, Rand: rng}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := est.EstimateFB(iq, sdr.DefaultSampleRate)
		if err != nil {
			b.Fatal(err)
		}
		if math.Abs(got.DeltaHz+22e3) > 500 {
			b.Fatalf("estimate drifted: %f", got.DeltaHz)
		}
	}
}

func BenchmarkFBDechirpFFT(b *testing.B) {
	iq := benchChirp(sdr.DefaultSampleRate)
	est := &core.DechirpFFTEstimator{Params: lora.DefaultParams(7)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateFB(iq, sdr.DefaultSampleRate); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFBDechirpFFTExhaustive measures the legacy monolithic padded-FFT
// reference the decimated+zoom fast path replaced (core.DechirpFFTEstimator
// with Exhaustive set) — the before/after pair for the PR 4 FB-estimator
// trajectory.
func BenchmarkFBDechirpFFTExhaustive(b *testing.B) {
	iq := benchChirp(sdr.DefaultSampleRate)
	est := &core.DechirpFFTEstimator{Params: lora.DefaultParams(7), Exhaustive: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateFB(iq, sdr.DefaultSampleRate); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGatewayProcessUplink(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	gw, err := NewGateway(Config{Rand: rng})
	if err != nil {
		b.Fatal(err)
	}
	sim := &Simulation{Gateway: gw, NoiseFloordBm: -100, Rand: rng}
	dev := NewSimDevice("bench", -23, 40, 14, 80, 100)
	gw.EnrollDevice("bench", dev.Transmitter.BiasHz(gw.Params()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Record(float64(i), nil)
		if _, _, err := sim.Uplink(dev, float64(i)+0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationUpDownEstimator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationUpDown(3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintAblationUpDown(os.Stdout, rows)
		}
	}
}

// --- Planned-DSP and batch-pipeline benchmarks (PR 1 perf trajectory) ---

// BenchmarkFFTPlan measures the zero-allocation planned transform against
// the allocating FFT at the sizes the gateway hot paths use, then the
// zero-padded out-of-place shapes the gateway runs: the dechirp onset's
// coarse window (614 decimated samples at SF7 and 2.4 Msps into 1,024
// bins) and its refinement's anchor FFT (a 2,457-sample chirp into 4,096).
func BenchmarkFFTPlan(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	randIQ := func(n int) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return x
	}
	planned := func(x []complex128, n int) func(*testing.B) {
		return func(b *testing.B) {
			plan := dsp.PlanFor(n)
			dst := make([]complex128, plan.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.Transform(dst, x)
			}
		}
	}
	for _, n := range []int{256, 1024, 4096} {
		x := randIQ(n)
		b.Run(fmt.Sprintf("planned-%d", n), planned(x, n))
		b.Run(fmt.Sprintf("alloc-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dsp.FFT(x)
			}
		})
	}
	for _, c := range []struct{ l, n int }{{614, 1024}, {2457, 4096}} {
		b.Run(fmt.Sprintf("padded-%d-%d", c.l, c.n), planned(randIQ(c.l), c.n))
	}
}

// BenchmarkDechirpDecimate times the dechirp onset's coarse-scan front
// half: one SF7 chirp window at 2.4 Msps (2,457 samples) dechirped and
// boxcar-decimated by 4.
func BenchmarkDechirpDecimate(b *testing.B) {
	const rate = sdr.DefaultSampleRate
	p := lora.DefaultParams(7)
	n := int(p.SamplesPerChirp(rate))
	phase := make([]float64, n)
	for i := range phase {
		phase[i] = 1e-4 * float64(i) * float64(i)
	}
	var s dsp.DechirpScratch[int]
	s.Init(0, n, rate, 1, phase)
	rng := rand.New(rand.NewSource(5))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dst := make([]complex128, n/4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DechirpDecimateInto(dst, x, 4)
	}
}

// BenchmarkDechirpOnset exercises the despreading onset detector's sliding
// window scan — the heaviest per-uplink DSP load in the gateway.
func BenchmarkDechirpOnset(b *testing.B) {
	const rate = sdr.DefaultSampleRate
	rng := rand.New(rand.NewSource(11))
	p := lora.DefaultParams(7)
	spec := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, FrequencyOffset: -20e3}
	lead := int(1e-3 * rate)
	n := int(spec.Duration() * rate)
	iq := make([]complex128, lead+8*n+64)
	for c := 0; c < 8; c++ {
		spec.AddTo(iq, rate, (float64(lead)+float64(c)*spec.Duration()*rate)/rate)
	}
	noise := dsp.GaussianNoise(rng, len(iq), 0.05)
	for i := range iq {
		iq[i] += noise[i]
	}
	det := &core.DechirpOnsetDetector{Params: p}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.DetectOnset(iq, rate); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Recurrence-oscillator synthesis benchmarks (PR 3 perf trajectory) ---

// BenchmarkChirpSynthesize compares the oscillator-backed chirp renderer
// against the direct per-sample PhaseAt + math.Sincos baseline it replaced.
func BenchmarkChirpSynthesize(b *testing.B) {
	const rate = sdr.DefaultSampleRate
	p := lora.DefaultParams(7)
	spec := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, Symbol: 37, FrequencyOffset: -22e3, Phase: 0.8}
	n := int(spec.Duration() * rate)
	dst := make([]complex128, n)
	b.Run("oscillator", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spec.AddTo(dst, rate, 0)
		}
	})
	b.Run("direct-trig", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dt := 1 / rate
			for j := range dst {
				s, c := math.Sincos(spec.PhaseAt(float64(j) * dt))
				dst[j] += complex(c, s)
			}
		}
	})
}

// BenchmarkSDRDownconvert compares the rotator-based LO correction against
// the per-sample trig baseline, plus the full 8-bit receiver chain
// (rotation + AGC quantization with Gaussian dither) for context.
func BenchmarkSDRDownconvert(b *testing.B) {
	const rate = sdr.DefaultSampleRate
	p := lora.DefaultParams(7)
	spec := lora.ChirpSpec{SF: p.SF, Bandwidth: p.Bandwidth, FrequencyOffset: -22e3}
	iq := make([]complex128, 1<<14)
	spec.AddTo(iq, rate, 0)
	makeRecv := func(bits int) *sdr.Receiver {
		return &sdr.Receiver{FrequencyBias: -3e3, ADCBits: bits, Rand: rand.New(rand.NewSource(12))}
	}
	bench := func(name string, bits int) {
		b.Run(name, func(b *testing.B) {
			r := makeRecv(bits)
			in := &radio.Capture{IQ: iq, Rate: rate}
			var out sdr.Capture // reused header: the batch pipeline's shape
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.DownconvertInto(&out, in); err != nil {
					b.Fatal(err)
				}
				out.Release()
			}
		})
	}
	bench("oscillator", 0)
	b.Run("direct-trig", func(b *testing.B) {
		rng := rand.New(rand.NewSource(12))
		out := make([]complex128, len(iq))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			theta := rng.Float64() * 2 * math.Pi
			dt := 1 / rate
			for j, v := range iq {
				t := float64(j) * dt
				ph := -(2*math.Pi*(-3e3)*t + theta)
				s, c := math.Sincos(ph)
				out[j] = v * complex(c, s)
			}
		}
	})
	bench("full-8bit", 8)
}

// BenchmarkGatewayBatchThroughput processes a pre-rendered 8-uplink batch
// through ProcessBatch at several worker-pool sizes on the default pipeline
// (AIC onset + dechirp-FFT FB), plus one configuration running the low-SNR
// pipeline end to end: the dechirp onset detector (the hierarchical search)
// with the up/down FB estimator. On a multi-core host the worker counts
// separate; the planned-DSP savings show at every count.
func BenchmarkGatewayBatchThroughput(b *testing.B) {
	const batch = 8
	type config struct {
		name  string
		onset OnsetMethod
		fb    FBMethod
	}
	for _, workers := range []int{1, 4, 8} {
		cfgs := []config{{fmt.Sprintf("workers-%d", workers), "", FBDechirpFFT}}
		if workers == 1 {
			cfgs = append(cfgs, config{"workers-1-dechirp-onset-updown", OnsetDechirp, FBUpDown})
		}
		for _, c := range cfgs {
			benchGatewayBatch(b, c.name, c.onset, c.fb, workers, batch)
		}
	}
}

// BenchmarkGatewayBatchScaling is the multi-core scaling probe: the worker
// pool follows GOMAXPROCS (Workers = 0), so
//
//	go test -bench GatewayBatchScaling -cpu 1,2,4
//
// charts how the same 8-uplink batch scales with cores. The sub-benchmark
// name carries the effective GOMAXPROCS so bench-history entries recorded
// at different core counts never alias (Go only appends a -N suffix for
// N > 1). TestGatewayBatchScalingFloor asserts the floor this benchmark
// measures.
func BenchmarkGatewayBatchScaling(b *testing.B) {
	benchGatewayBatch(b, fmt.Sprintf("gomaxprocs-%d", runtime.GOMAXPROCS(0)), "", FBDechirpFFT, 0, 8)
}

// BenchmarkNetworkServerCheck measures the network server's sharded-lock
// verdict hot path: a pre-enrolled fleet, goroutines issuing one Check per
// iteration against devices spread across the shards. This is the per-frame
// detection cost every gateway's commit stage pays.
func BenchmarkNetworkServerCheck(b *testing.B) {
	s := netserver.New(netserver.Config{})
	const fleet = 4096
	ids := make([]string, fleet)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev-%d", i)
		s.Enroll(ids[i], -22e3, 10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Check(netserver.PHYObservation{
				GatewayID: "gw-0",
				DeviceID:  ids[i&(fleet-1)],
				FBHz:      -22e3 + float64(i%64),
				JitterHz:  40,
			})
			i++
		}
	})
}

// BenchmarkNetworkServerCheckWindowed measures the streaming ingest path:
// every frame arrives as two gateway copies in consecutive Check calls
// against a window-enabled server, so each iteration pays the dedup
// window's bookkeeping and every second iteration a fill-commit (fusion +
// one database fold). The committed-verdict queue is drained periodically,
// as a Check-only caller is documented to do.
func BenchmarkNetworkServerCheckWindowed(b *testing.B) {
	s := netserver.New(netserver.Config{
		Window: netserver.WindowConfig{Hold: 1, MaxReceivers: 2},
	})
	const fleet = 4096
	ids := make([]string, fleet)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev-%d", i)
		s.Enroll(ids[i], -22e3, 10)
	}
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		gid := seq.Add(1)
		var i int64
		for pb.Next() {
			frame := i / 2
			o := netserver.PHYObservation{
				GatewayID:   "gw-0",
				DeviceID:    ids[int(frame)&(fleet-1)],
				FrameID:     fmt.Sprintf("f%d-%d", gid, frame),
				UplinkIndex: frame,
				FBHz:        -22e3 + float64(i%64),
				JitterHz:    40,
				ArrivalTime: float64(i) * 1e-4,
			}
			if i&1 == 1 {
				o.GatewayID = "gw-1"
			}
			s.Check(o)
			if i&1023 == 0 {
				s.PollWindow()
			}
			i++
		}
	})
}

// BenchmarkSnapshotRoundTrip measures the durable persistence path: a full
// sharded SaveDir of a populated bias database followed by a crash-safe
// LoadDir recovery into a fresh server. bytes/device reports the on-disk
// footprint of one enrolled device in the snapshot container (per-record
// and whole-file checksums included).
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	const fleet = 4096
	s := netserver.New(netserver.Config{})
	for i := 0; i < fleet; i++ {
		id := fmt.Sprintf("dev-%d", i)
		s.Enroll(id, -22e3+float64(i%500), 10)
		s.Check(netserver.PHYObservation{
			GatewayID:   "gw-0",
			DeviceID:    id,
			FBHz:        -22e3 + float64(i%500),
			JitterHz:    40,
			ArrivalTime: 100 + float64(i),
		})
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SaveDir(nil, dir); err != nil {
			b.Fatal(err)
		}
		fresh := netserver.New(netserver.Config{})
		if _, err := fresh.LoadDir(nil, dir); err != nil {
			b.Fatal(err)
		}
		if fresh.Devices() != fleet {
			b.Fatalf("round trip lost devices: %d of %d", fresh.Devices(), fleet)
		}
	}
	b.StopTimer()
	path := filepath.Join(b.TempDir(), "db.snap")
	if err := s.SaveFile(nil, path); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size())/fleet, "bytes/device")
}

func benchGatewayBatch(b *testing.B, name string, onset OnsetMethod, fb FBMethod, workers, batch int) {
	b.Run(name, func(b *testing.B) {
		rng := rand.New(rand.NewSource(10))
		gw, err := NewGateway(Config{Rand: rng, FB: fb, Onset: onset, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		sim := &Simulation{Gateway: gw, NoiseFloordBm: -100, Rand: rng}
		jobs := make([]Uplink, batch)
		now := 10.0
		for i := range jobs {
			dev := NewSimDevice(fmt.Sprintf("bench-%d", i), -23, 40, 14, 80, 100)
			gw.EnrollDevice(dev.ID, dev.Transmitter.BiasHz(gw.Params()))
			dev.Record(now-1, nil)
			cap, records, err := sim.RenderUplink(dev, now)
			if err != nil {
				b.Fatal(err)
			}
			jobs[i] = Uplink{Capture: cap, ClaimedID: dev.ID, Records: records}
			now += 2
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range gw.ProcessBatch(ctx, jobs) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
}
