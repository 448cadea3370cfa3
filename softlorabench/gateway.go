package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"softlora"
	"softlora/internal/core"
	"softlora/internal/lora"
	"softlora/internal/netserver"
	"softlora/internal/radio"
	"softlora/internal/sdr"
	"softlora/internal/timestamp"
)

// gatewaySpec is one gateway workload: a link budget and the gateway
// configuration that judges it. Both workloads share the fleet shape below.
type gatewaySpec struct {
	name  string
	onset softlora.OnsetMethod
	fb    softlora.FBMethod
	// uplinks is the corpus size, a multiple of batchSize. Captures are
	// held in memory for the whole run (~230 KB each for the paper's
	// two-chirp capture, ~550 KB through the SFD).
	uplinks int
	// passes is the length of the reference sequence, in passes over the
	// corpus: every output of it is judged against the truth, and every
	// timed pass replays one of its passes (see runGateway).
	passes int
	// pathLoss and distance are the per-device link ranges (dB, m).
	pathLoss, distance [2]float64
	// kernelUnits is how much calibration kernel runs after each timed
	// pass, about a tenth of the pass's CPU time (see calibrate.go).
	kernelUnits int
	// onsetTol is the per-capture onset error the repo's accuracy tests
	// pin for the workload's detector, in seconds: the radio uncertainty
	// of the timestamp bound and the onset hit threshold.
	onsetTol float64
}

// gatewayAIC is BenchmarkGatewayBatchThroughput's operating point: 14 dBm
// over 80 dB against a −100 dBm floor (~34 dB capture SNR), the default
// AIC onset detector and dechirp-FFT bias estimator.
var gatewayAIC = gatewaySpec{
	name:        "gateway-aic",
	onset:       softlora.OnsetAIC,
	fb:          softlora.FBDechirpFFT,
	uplinks:     128,
	passes:      128, // 16,384 judged uplinks, ~1.3 AIC gross onsets a seed
	kernelUnits: 2,
	pathLoss:    [2]float64{80, 80},
	distance:    [2]float64{100, 100},
	onsetTol:    2e-6, // TestAICDetectorHighSNR: < 2 µs
}

// gatewayLowSNR spreads the links over the building range softlora-sim
// cites (about +13 to −5 dB capture SNR) and judges them with the
// despreading onset detector and the up/down estimator, the configuration
// that keeps verdicts correct there.
var gatewayLowSNR = gatewaySpec{
	name:        "gateway-lowsnr",
	onset:       softlora.OnsetDechirp,
	fb:          softlora.FBUpDown,
	uplinks:     64,
	passes:      16,
	kernelUnits: 6,
	pathLoss:    [2]float64{101, 119},
	distance:    [2]float64{10, 60},
	onsetTol:    10e-6, // TestDechirpOnsetWalksBackToFirstChirp: ≤ 10 µs at 10 dB
}

// Fleet and traffic shape shared by the gateway workloads.
const (
	batchSize     = 8  // uplinks per ProcessBatch call
	fleetSize     = 32 // enrolled devices
	replayEvery   = 8  // one uplink in replayEvery is a replay
	noiseFloordBm = -100
	txPowerdBm    = 14
	uplinkSpacing = 2.0 // seconds between uplinks on the channel timeline
	maxBufferTime = 60  // seconds a record may wait on its device
	// replayBiasPPM is the replayer oscillator's extra bias, the middle of
	// the paper's USRP range (0.62–0.85 ppm); ≈ 609 Hz at 869.75 MHz.
	replayBiasPPM = 0.7
	// commitPasses is how many reference passes are replayed at Workers 1
	// to check the ordered-commit contract.
	commitPasses = 4
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats = 5
)

// corpus is a gateway workload's pre-rendered input and its ground truth.
type corpus struct {
	spec    gatewaySpec
	params  lora.Params
	ids     []string
	biasHz  []float64 // each device's nominal bias, what enrollment holds
	uplinks []softlora.Uplink
	truth   []uplinkTruth
	// renderTime is the total time spent rendering the captures.
	renderTime time.Duration
}

// release returns the corpus captures to the capture pool.
func (c *corpus) release() {
	for i := range c.uplinks {
		c.uplinks[i].Capture.Release()
	}
}

func (s gatewaySpec) newGateway(seed int64, workers int) (*softlora.Gateway, error) {
	return softlora.NewGateway(softlora.Config{
		Rand:    rand.New(rand.NewSource(seed)),
		Onset:   s.onset,
		FB:      s.fb,
		Workers: workers,
	})
}

// buildCorpus renders a workload's uplinks from seed. Each device appears
// uplinks/fleetSize times in a seeded order, carrying one to three records
// buffered since its previous transmission; exactly one uplink in
// replayEvery, at seeded positions, is rendered as a replay.
func buildCorpus(spec gatewaySpec, seed int64) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	// A render-side gateway fixes the channel parameters, sample rate and
	// capture length; it never processes anything.
	renderGW, err := spec.newGateway(seed, 1)
	if err != nil {
		return nil, err
	}
	sim := &softlora.Simulation{
		Gateway:       renderGW,
		NoiseFloordBm: noiseFloordBm,
		Rand:          rand.New(rand.NewSource(seed + 1)),
	}
	c := &corpus{spec: spec, params: renderGW.Params()}
	devices := make([]*softlora.SimDevice, fleetSize)
	for i := range devices {
		biasPPM := -29 + rng.Float64()*9 // RN2483-like −29..−20 ppm
		driftPPM := 30 + rng.Float64()*20
		pl := spec.pathLoss[0] + rng.Float64()*(spec.pathLoss[1]-spec.pathLoss[0])
		dist := spec.distance[0] + rng.Float64()*(spec.distance[1]-spec.distance[0])
		devices[i] = softlora.NewSimDevice(fmt.Sprintf("dev-%02d", i), biasPPM, driftPPM, txPowerdBm, pl, dist)
		c.ids = append(c.ids, devices[i].ID)
		c.biasHz = append(c.biasHz, devices[i].Transmitter.BiasHz(c.params))
	}
	order := rng.Perm(spec.uplinks)
	replay := make([]bool, spec.uplinks)
	for _, k := range rng.Perm(spec.uplinks)[:spec.uplinks/replayEvery] {
		replay[k] = true
	}
	replayHz := c.params.HzFromPPM(replayBiasPPM)
	lastSent := make([]float64, fleetSize)
	start := time.Now()
	for k := 0; k < spec.uplinks; k++ {
		d := order[k] % fleetSize
		dev := devices[d]
		t0 := 10 + maxBufferTime + float64(k)*uplinkSpacing
		// Records are taken after the device's previous transmission.
		window := math.Min(maxBufferTime, t0-lastSent[d])
		tr := uplinkTruth{Replay: replay[k], SentAt: t0, DriftPPM: dev.Data.Clock.DriftPPM,
			PropDelay: radio.PropagationDelay(dev.DistanceMeters)}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			tr.RecordTimes = append(tr.RecordTimes, t0-(0.1+rng.Float64()*(window-0.2)))
		}
		sort.Float64s(tr.RecordTimes)
		for _, at := range tr.RecordTimes {
			dev.Record(at, []byte{byte(k)})
		}
		extra := 0.0
		if tr.Replay {
			extra = replayHz
		}
		capt, records, imp, err := renderUplink(sim, dev, t0, extra)
		if err != nil {
			c.release()
			return nil, err
		}
		lastSent[d] = t0
		tr.EmissionFBHz = imp.FrequencyBias
		tr.OnsetSample = capt.SampleAt(t0 + tr.PropDelay)
		c.uplinks = append(c.uplinks, softlora.Uplink{Capture: capt, ClaimedID: dev.ID, Records: records})
		c.truth = append(c.truth, tr)
	}
	c.renderTime = time.Since(start)
	return c, nil
}

// renderUplink is Simulation.RenderUplink composed from its public halves
// (Device.Flush, Transmitter.NextImpairments, Simulation.CaptureEmission),
// drawing from the simulation's random source in the same order, so its
// capture is bit-identical to RenderUplink's while the generator learns the
// emission's drawn bias. extraBiasHz is the replayer oscillator's bias.
func renderUplink(sim *softlora.Simulation, d *softlora.SimDevice, t0, extraBiasHz float64) (*radio.Capture, []timestamp.FrameRecord, lora.Impairments, error) {
	records, err := d.Data.Flush(t0)
	if err != nil {
		return nil, nil, lora.Impairments{}, fmt.Errorf("flushing records: %w", err)
	}
	payload := make([]byte, 0, 4*len(records))
	for _, r := range records {
		payload = append(payload, byte(r.Elapsed), byte(r.Elapsed>>8), byte(r.Elapsed>>16))
		if len(r.Value) > 0 {
			payload = append(payload, r.Value[0])
		} else {
			payload = append(payload, 0)
		}
	}
	if len(payload) == 0 {
		payload = []byte{0}
	}
	params := sim.Gateway.Params()
	imp := d.Transmitter.NextImpairments(params, sim.Rand)
	imp.FrequencyBias += extraBiasHz
	capt, err := sim.CaptureEmission(radio.Emission{
		Frame:       lora.Frame{Params: params, Payload: payload},
		Impairments: imp,
		StartTime:   t0,
		TxPowerdBm:  d.Transmitter.PowerdBm,
		PathLossdB:  d.PathLossdB,
		Distance:    d.DistanceMeters,
	})
	if err != nil {
		return nil, nil, lora.Impairments{}, err
	}
	return capt, records, imp, nil
}

// gatewaySeed derives the gateway's random source seed from the run seed.
func gatewaySeed(seed int64) int64 { return seed*1_000_003 + 17 }

// newGateway builds the gateway under test with the corpus fleet enrolled
// at its true biases.
func (c *corpus) newGateway(seed int64, workers int) (*softlora.Gateway, error) {
	gw, err := c.spec.newGateway(gatewaySeed(seed), workers)
	if err != nil {
		return nil, err
	}
	for i, id := range c.ids {
		gw.EnrollDevice(id, c.biasHz[i])
	}
	return gw, nil
}

// setupGateway runs set-up setupRepeats times — render the corpus, build
// the gateway under test and enroll the fleet — timing each in process CPU
// time, and keeps the last.
func setupGateway(spec gatewaySpec, seed int64) (*corpus, *softlora.Gateway, []float64, error) {
	var c *corpus
	var gw *softlora.Gateway
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			c.release()
		}
		coldStart()
		start := cpuTime()
		var err error
		if c, err = buildCorpus(spec, seed); err != nil {
			return nil, nil, nil, err
		}
		if gw, err = c.newGateway(seed, runtime.NumCPU()); err != nil {
			c.release()
			return nil, nil, nil, err
		}
		times = append(times, (cpuTime() - start).Seconds())
	}
	return c, gw, times, nil
}

// passTiming accumulates one gateway pass's measured calls.
type passTiming struct {
	wall, cpu time.Duration
	uplinks   int
	allocs    uint64    // heap objects allocated inside the calls, when counted
	latMs     []float64 // per call
}

// gatewayPass runs the corpus once through ProcessBatch in batchSize
// calls. Only the calls are timed; visit, when set, sees every batch's
// results between them. ha, when set, counts the calls' heap allocations.
func gatewayPass(c *corpus, gw *softlora.Gateway, ha *heapAllocs, visit func(first int, res []softlora.BatchResult)) passTiming {
	ctx := context.Background()
	pt := passTiming{latMs: make([]float64, 0, len(c.uplinks)/batchSize)}
	for b := 0; b < len(c.uplinks); b += batchSize {
		batch := c.uplinks[b : b+batchSize]
		var a0 uint64
		if ha != nil {
			a0 = ha.read()
		}
		w0, c0 := time.Now(), cpuTime()
		res := gw.ProcessBatch(ctx, batch)
		lat := time.Since(w0)
		pt.cpu += cpuTime() - c0
		if ha != nil {
			pt.allocs += ha.read() - a0
		}
		pt.wall += lat
		pt.uplinks += len(batch)
		pt.latMs = append(pt.latMs, lat.Seconds()*1e3)
		if visit != nil {
			visit(b, res)
		}
	}
	return pt
}

// digestPass runs one pass on gw and returns its timing and the digest of
// its results plus the bias database after it. judge, when set, also sees
// every batch's results.
func digestPass(c *corpus, gw *softlora.Gateway, ha *heapAllocs, judge func(first int, res []softlora.BatchResult)) (passTiming, string, error) {
	d := newDigest()
	pt := gatewayPass(c, gw, ha, func(first int, res []softlora.BatchResult) {
		for _, rr := range res {
			d.uplink(rr)
		}
		if judge != nil {
			judge(first, res)
		}
	})
	if err := d.database(gw.NetworkServer()); err != nil {
		return pt, "", err
	}
	return pt, d.sum(), nil
}

// reference is a gateway workload's reference sequence: spec.passes passes
// over the corpus on the set-up gateway, every result judged against the
// truth. Its digests are what every replayed pass must reproduce.
type reference struct {
	passDigest []string
	// Accuracy of the judged results, reported by the traced run:
	// onsets within the onset tolerance, |FB − emission bias|, and
	// verdicts against the truth.
	judged, onsetHits, falseAlarms, misses int
	fbErr                                  []float64
}

// buildReference runs the reference sequence on gw, a fresh gateway at
// Workers nproc, counting every uplink as an operation of the run. The
// sequence, its outputs and so the run's attempted and failed counts are a
// pure function of (workload, seed). onPass, when set, sees each pass's
// timing; the first pass also builds the workers' pipelines.
func buildReference(r *run, c *corpus, gw *softlora.Gateway, onPass func(p int, pt passTiming)) (*reference, error) {
	ref := &reference{}
	tol := c.spec.onsetTol * sdr.DefaultSampleRate
	judge := func(first int, res []softlora.BatchResult) {
		for i, rr := range res {
			t := &c.truth[first+i]
			r.op(checkUplink(t, rr, c.spec.onsetTol))
			if rr.Report == nil {
				continue
			}
			ref.judged++
			if math.Abs(float64(rr.Report.OnsetSample)-t.OnsetSample) <= tol {
				ref.onsetHits++
			}
			ref.fbErr = append(ref.fbErr, math.Abs(rr.Report.FrequencyBiasHz-t.EmissionFBHz))
			isReplay := rr.Report.Verdict == softlora.VerdictReplay
			if isReplay && !t.Replay {
				ref.falseAlarms++
			} else if !isReplay && t.Replay {
				ref.misses++
			}
		}
	}
	for p := 0; p < c.spec.passes; p++ {
		pt, sum, err := digestPass(c, gw, nil, judge)
		if err != nil {
			return nil, err
		}
		ref.passDigest = append(ref.passDigest, sum)
		if onPass != nil {
			onPass(p, pt)
		}
	}
	return ref, nil
}

// sum is the digest of the whole reference sequence.
func (ref *reference) sum() string {
	d := newDigest()
	for _, s := range ref.passDigest {
		d.str(s)
	}
	return d.sum()
}

// replay runs the reference sequence again, pass after pass, on fresh
// gateways seeded and enrolled like the reference's, starting a new one
// each time the sequence ends. Every pass's results and database must equal
// the reference pass's bit for bit, whatever the worker count (the
// ordered-commit contract); a pass that differs invalidates the run.
type replay struct {
	r        *run
	c        *corpus
	ref      *reference
	workers  int
	gw       *softlora.Gateway
	next     int // the sequence's next pass on gw
	mismatch bool
}

func newReplay(r *run, c *corpus, ref *reference, workers int) *replay {
	return &replay{r: r, c: c, ref: ref, workers: workers}
}

// pass runs the sequence's next pass and checks it. fresh reports the
// first pass of a new gateway, whose calls also build the workers'
// pipelines: it is checked like any pass but is not a steady-state sample.
func (rp *replay) pass(ha *heapAllocs) (pt passTiming, fresh bool, err error) {
	if fresh = rp.gw == nil || rp.next == len(rp.ref.passDigest); fresh {
		// Collect the previous gateway first, so the benchmark's churn of
		// whole gateways neither lifts the heap peak nor leaves garbage
		// for the timed passes to collect.
		rp.gw = nil
		runtime.GC()
		if rp.gw, err = rp.c.newGateway(rp.r.seed, rp.workers); err != nil {
			return pt, fresh, err
		}
		rp.next = 0
	}
	pt, sum, err := digestPass(rp.c, rp.gw, ha, nil)
	if err != nil {
		return pt, fresh, err
	}
	if want := rp.ref.passDigest[rp.next]; sum != want && !rp.mismatch {
		rp.mismatch = true
		rp.r.invalidate("determinism", fmt.Errorf("reference pass %d replayed at Workers %d: digest %s, want %s", rp.next, rp.workers, sum, want))
	}
	rp.next++
	return pt, fresh, nil
}

// runGateway is a gateway run: set-up, then the timed phase. It opens with
// the reference sequence, judged; its first commitPasses passes are then
// replayed at Workers 1 (the ordered-commit contract), untimed; then, for
// the rest of the run's duration, timed passes replay the reference at
// Workers nproc. Every pass on a warm gateway is a rate sample, the
// reference's included: only the ProcessBatch calls are timed, the judging
// runs between them. Because every replayed pass reproduces a judged one
// exactly, the run's operation counts do not depend on how many passes the
// host managed.
func runGateway(r *run, spec gatewaySpec) error {
	c, gw, setups, err := setupGateway(spec, r.seed)
	if err != nil {
		return err
	}
	defer c.release()
	r.setupTimes = setups
	if r.trace {
		ref, err := buildReference(r, c, gw, nil)
		if err != nil {
			return err
		}
		r.digest = ref.sum()
		return traceGateway(r, c, ref)
	}

	k := newCalibrator(runtime.NumCPU())
	k.slowdown(spec.kernelUnits)
	var perWall, perCPU, slowdowns, lats []float64
	sample := func(pt passTiming) {
		perWall = append(perWall, float64(pt.uplinks)/pt.wall.Seconds())
		perCPU = append(perCPU, float64(pt.uplinks)/pt.cpu.Seconds())
		slowdowns = append(slowdowns, k.slowdown(spec.kernelUnits))
		lats = append(lats, pt.latMs...)
	}
	steal := startSteal()
	start := time.Now()
	ref, err := buildReference(r, c, gw, func(p int, pt passTiming) {
		if p > 0 {
			sample(pt)
		}
	})
	if err != nil {
		return err
	}
	r.digest = ref.sum()
	w1 := newReplay(r, c, ref, 1)
	for p := 0; p < commitPasses; p++ {
		if _, _, err := w1.pass(nil); err != nil {
			return err
		}
	}
	rp := newReplay(r, c, ref, runtime.NumCPU())
	for time.Since(start) < r.seconds {
		pt, fresh, err := rp.pass(nil)
		if err != nil {
			return err
		}
		if !fresh {
			sample(pt)
		}
	}
	r.steal = steal.share()

	// The run's median CPU rate, rescaled by its median kernel slowdown
	// to CPU-seconds of the reference core (see calibrate.go).
	refRate := median(perCPU) * median(slowdowns)
	r.set("ops_per_cpu_s", refRate, "1/s")
	r.report("uplinks_per_s", median(perWall), "1/s", spread("passes", perWall))
	r.report("uplinks_per_cpu_s", median(perCPU), "1/s", spread("passes", perCPU))
	r.report("host_slowdown", median(slowdowns), "x", spread("calibration kernel runs", slowdowns))
	r.report("uplinks_per_ref_cpu_s", refRate, "1/s", "gated as ops_per_cpu_s")
	r.report("batch_p50_ms", median(lats), "ms", spread("ProcessBatch calls", lats))
	return nil
}

// stages is the gateway's per-worker pipeline composed from its public
// layer calls with Gateway.newPipeline's settings (8-bit SDR front end, AIC
// with the default prefilter or the dechirp detector at its defaults,
// dechirp-FFT or up/down FB), so the traced run can time each layer on its
// own. It must stay in step with newPipeline: the residual guard flags a
// traced run whose stages stop accounting for ProcessBatch's time.
type stages struct {
	recv   sdr.Receiver
	onset  core.OnsetDetector
	fb     core.FBEstimator
	updown *core.UpDownEstimator
	sdrCap sdr.Capture
	server *netserver.NetworkServer
	n      int // samples per chirp
	ts     []float64
}

func newStages(c *corpus, seed int64) *stages {
	p := c.params
	st := &stages{
		recv:   sdr.Receiver{ADCBits: 8, Rand: rand.New(rand.NewSource(gatewaySeed(seed)))},
		server: netserver.New(netserver.Config{}),
		n:      int(p.SamplesPerChirp(sdr.DefaultSampleRate)),
	}
	if c.spec.onset == softlora.OnsetDechirp {
		st.onset = &core.DechirpOnsetDetector{Params: p}
	} else {
		st.onset = &core.AICDetector{LowPassCutoffHz: core.DefaultPrefilterCutoffHz}
	}
	if c.spec.fb == softlora.FBUpDown {
		st.updown = &core.UpDownEstimator{Params: p}
	} else {
		st.fb = &core.DechirpFFTEstimator{Params: p}
	}
	for i, id := range c.ids {
		st.server.Enroll(id, c.biasHz[i], core.DefaultEnrollFrames)
	}
	return st
}

// uplink runs one uplink through the composed stages, with a span per
// layer call when tr is set: down-conversion, onset, FB, the single-gateway
// commit, then timestamp reconstruction as ProcessBatch's commit does.
func (st *stages) uplink(tr *tracer, id int64, u *softlora.Uplink) error {
	root := tr.begin("uplink", id, -1)
	defer tr.end(root)

	sp := tr.begin("sdr.downconvert", id, root)
	err := st.recv.DownconvertInto(&st.sdrCap, u.Capture)
	tr.end(sp)
	if err != nil {
		return err
	}
	defer st.sdrCap.Release()
	iq, rate := st.sdrCap.IQ, st.sdrCap.Rate

	sp = tr.begin("core.onset", id, root)
	on, err := st.onset.DetectOnset(iq, rate)
	tr.end(sp)
	if err != nil {
		return err
	}
	arrival := st.sdrCap.TimeOf(on.Sample)

	var fbHz float64
	sp = tr.begin("core.fb", id, root)
	if st.updown != nil {
		var res core.UpDownResult
		if res, err = st.updown.Estimate(iq, on.Sample, rate); err == nil {
			fbHz = res.DeltaHz
			arrival += res.TimingCorrection
		}
	} else if second := on.Sample + st.n; second+st.n > len(iq) {
		err = softlora.ErrCaptureShort
	} else {
		var est core.FBEstimate
		if est, err = st.fb.EstimateFB(iq[second:second+st.n], rate); err == nil {
			fbHz = est.DeltaHz
		}
	}
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("netserver.check", id, root)
	v := st.server.Check(netserver.PHYObservation{
		GatewayID:   "gw-0",
		DeviceID:    u.ClaimedID,
		UplinkIndex: id,
		FBHz:        fbHz,
		ArrivalTime: arrival,
		OnsetSample: on.Sample,
	})
	tr.end(sp)
	if v != core.VerdictReplay {
		st.ts = st.ts[:0]
		for _, rec := range u.Records {
			st.ts = append(st.ts, timestamp.Reconstruct(arrival, rec))
		}
	}
	return nil
}

// gatewayStages are the traced layers of the gateway path in pipeline
// order: the span each is recorded under and its per-layer metrics.
var gatewayStages = []struct{ span, us, allocs string }{
	{"sdr.downconvert", "sdr.downconvert_us", "sdr.allocs_per_uplink"},
	{"core.onset", "core.onset_us", "core.onset.allocs_per_uplink"},
	{"core.fb", "core.fb_us", "core.fb.allocs_per_uplink"},
	{"netserver.check", "netserver.check_us", ""},
}

// residualLimit bounds softlora.residual_share: ProcessBatch's per-uplink
// time the composed stages do not account for (jitter estimate, report
// fill, worker pool). Beyond it the composition has drifted from
// Gateway.newPipeline and the stage numbers are not the gateway's.
const residualLimit = 0.15

// traceGateway is the traced gateway run. It rotates four kinds of pass
// over the same corpus so that host noise hits each alike: the composed
// stages traced, the composed stages untraced (the tracing overhead), and
// replayed reference passes through ProcessBatch at Workers 1 (the time the
// stages must account for) and at Workers nproc (the latency tail of the
// end-to-end configuration). Accuracy comes from the judged reference.
func traceGateway(r *run, c *corpus, ref *reference) error {
	st := newStages(c, r.seed)
	tr := newTracer()
	allocs := newHeapAllocs()
	w1 := newReplay(r, c, ref, 1)
	wN := newReplay(r, c, ref, runtime.NumCPU())

	var (
		tracedUplinks, untracedUplinks int
		tracedWall, untracedWall       time.Duration
		b1Uplinks                      int
		b1Wall                         time.Duration
		b1Allocs                       uint64
		nLats, nRates                  []float64
		nextID                         int64
	)
	composed := func(trc *tracer) (time.Duration, error) {
		start := time.Now()
		for k := range c.uplinks {
			if err := st.uplink(trc, nextID, &c.uplinks[k]); err != nil {
				return 0, fmt.Errorf("composed stages, uplink %d: %w", k, err)
			}
			nextID++
		}
		return time.Since(start), nil
	}

	// Warm the composed stages before measuring; the reference warmed the
	// gateway.
	if _, err := composed(nil); err != nil {
		return err
	}

	gc := startGCCPU()
	steal := startSteal()
	start := time.Now()
	for time.Since(start) < r.seconds || b1Uplinks == 0 || len(nRates) == 0 {
		wall, err := composed(tr)
		if err != nil {
			return err
		}
		tracedWall += wall
		tracedUplinks += len(c.uplinks)

		if wall, err = composed(nil); err != nil {
			return err
		}
		untracedWall += wall
		untracedUplinks += len(c.uplinks)

		pt, fresh, err := w1.pass(allocs)
		if err != nil {
			return err
		}
		if !fresh {
			b1Allocs += pt.allocs
			b1Wall += pt.wall
			b1Uplinks += pt.uplinks
		}

		if pt, fresh, err = wN.pass(nil); err != nil {
			return err
		}
		if !fresh {
			nLats = append(nLats, pt.latMs...)
			nRates = append(nRates, float64(pt.uplinks)/pt.wall.Seconds())
		}
	}
	r.steal = steal.share()
	gcShare := gc.share()

	tot := tr.totals()
	perUplink := func(d time.Duration, n int) float64 { return d.Seconds() * 1e6 / float64(n) }
	var stageSum float64
	for _, s := range gatewayStages {
		lt := tot[s.span]
		us := perUplink(lt.Self, tracedUplinks)
		stageSum += us
		r.set(s.us, us, "us")
		if s.allocs != "" {
			r.set(s.allocs, float64(lt.Allocs)/float64(tracedUplinks), "allocs/uplink")
		}
	}
	b1PerUplink := perUplink(b1Wall, b1Uplinks)
	residual := 1 - stageSum/b1PerUplink
	r.set("softlora.residual_share", residual, "share")
	r.set("softlora.allocs_per_uplink", float64(b1Allocs)/float64(b1Uplinks), "allocs/uplink")
	r.set("core.onset.hit_ratio", float64(ref.onsetHits)/float64(ref.judged), "share")
	r.set("core.fb.abs_err_hz_p50", quantile(ref.fbErr, 0.5), "Hz")
	r.set("core.fb.abs_err_hz_p99", quantile(ref.fbErr, 0.99), "Hz")
	r.set("netserver.false_alarms", 1e4*float64(ref.falseAlarms)/float64(ref.judged), "1/10k")
	r.set("netserver.misses", 1e4*float64(ref.misses)/float64(ref.judged), "1/10k")
	r.set("radio.render_us", c.renderTime.Seconds()*1e6/float64(len(c.uplinks)), "us")
	r.set("softlora.uplinks_per_s", median(nRates), "1/s")
	r.set("softlora.batch_p50_ms", median(nLats), "ms")
	r.set("softlora.batch_p99_ms", quantile(nLats, 0.99), "ms")
	r.set("softlora.batch.samples", float64(len(nLats)), "count")
	r.set("runtime.gc_cpu_share", gcShare, "share")
	r.set("trace.overhead_share", perUplink(tracedWall, tracedUplinks)/perUplink(untracedWall, untracedUplinks)-1, "share")
	r.set("softlora.batch_workers1_us", b1PerUplink, "us")
	r.report("softlora.batch_workers1_us", b1PerUplink, "us",
		fmt.Sprintf("per uplink = stages %.1f us + residual %.1f%%", stageSum, 100*residual))
	if math.Abs(residual) > residualLimit {
		r.invalidate("residual guard", fmt.Errorf("softlora.residual_share %.3f is beyond ±%.2f: the composed stages no longer account for ProcessBatch", residual, residualLimit))
	}
	r.tracer = tr
	return nil
}
