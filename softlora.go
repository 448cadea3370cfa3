// Package softlora is an attack-aware, synchronization-free data
// timestamping gateway for LoRaWAN, reproducing "Attack-Aware Data
// Timestamping in Low-Power Synchronization-Free LoRaWAN" (Gu, Tan, Huang —
// ICDCS 2020).
//
// A SoftLoRa gateway pairs a commodity LoRaWAN radio with a low-cost SDR
// receiver. For every uplink it:
//
//  1. timestamps the PHY preamble onset to microseconds (AIC or envelope
//     detector on the SDR I/Q capture),
//  2. estimates the transmitter's oscillator frequency bias from the second
//     preamble chirp (0.14 ppm resolution), and
//  3. checks the bias against the claimed device's history — a frame
//     replayed by the frame delay attack carries the replayer's extra bias
//     (≥ 0.6 ppm) and is rejected, so data timestamps cannot be spoofed by
//     jam-and-replay adversaries.
//
// Sensor data carries only 18-bit elapsed times; the gateway reconstructs
// absolute timestamps from the verified PHY arrival time.
//
// # Concurrency and scratch ownership
//
// The DSP hot path (dechirp windows, FFTs, phase fits) runs on planned,
// preallocated scratch: FFT plans are immutable and shared process-wide,
// but every detector/estimator instance owns mutable scratch buffers and is
// single-goroutine. The gateway therefore keeps one pipeline (onset
// detector + FB estimator + SDR front end) per worker: ProcessUplink uses
// the gateway's own serial pipeline, while ProcessBatch fans a batch of
// captures across a bounded worker pool (Config.Workers, default
// GOMAXPROCS), each worker building its own pipeline so the hot path stays
// lock- and allocation-free. Never hand one pipeline's scratch to two
// goroutines: one plan/scratch set per worker, no sharing.
//
// # Two-stage processing and the ordering contract
//
// Each uplink is processed in two stages. The PHY stage (down-conversion,
// onset timestamping, FB + jitter estimation) is side-effect-free and runs
// concurrently on the worker pool. The detection/commit stage applies the
// §7.2 verdict against the bias database and is deterministic: ProcessBatch
// commits verdicts in uplink-index order after the PHY stage completes, so
// a batch's verdicts AND the resulting database state are bit-identical
// regardless of worker count or goroutine scheduling — even when one device
// appears several times in a batch.
//
// The database itself lives in an internal netserver.NetworkServer. A
// gateway built without Config.Server embeds a private one (single-gateway
// mode, the historical behavior); gateways sharing one server form a
// multi-receiver deployment in which the server deduplicates frames heard
// by several gateways and fuses their FB estimates before judging each
// frame once (see MultiGatewaySimulation and package netserver).
package softlora

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"softlora/internal/core"
	"softlora/internal/lora"
	"softlora/internal/netserver"
	"softlora/internal/radio"
	"softlora/internal/sdr"
	"softlora/internal/timestamp"
)

// Verdict classifies a processed uplink.
type Verdict string

// Uplink verdicts.
const (
	// VerdictGenuine: frequency bias consistent with the claimed device.
	VerdictGenuine Verdict = "genuine"
	// VerdictReplay: the frame delay attack's replay step was detected;
	// the frame is dropped and its timestamps are not trusted.
	VerdictReplay Verdict = "replay"
	// VerdictEnrolling: the device's bias is still being learned.
	VerdictEnrolling Verdict = "enrolling"
	// VerdictPending: the frame is held in the network server's streaming
	// dedup window awaiting more receiver copies; the committed verdict
	// arrives as a later window event.
	VerdictPending Verdict = "pending"
)

// OnsetMethod selects the PHY timestamping algorithm.
type OnsetMethod string

// Onset detection methods (§6.1.2 plus the despreading extension).
const (
	OnsetAIC      OnsetMethod = "aic"
	OnsetEnvelope OnsetMethod = "envelope"
	// OnsetDechirp uses the despreading-based triangle-apex detector, an
	// extension beyond the paper (core.DechirpOnsetDetector): microseconds
	// down to ~−10 dB where the paper's time-domain detectors degrade.
	OnsetDechirp OnsetMethod = "dechirp"
)

// FBMethod selects the frequency-bias estimator.
type FBMethod string

// FB estimation methods: the paper's two (§7.1) plus two extensions
// beyond it, documented on core.DechirpFFTEstimator and
// core.UpDownEstimator.
const (
	FBLinearRegression FBMethod = "linear-regression"
	FBLeastSquares     FBMethod = "least-squares"
	FBDechirpFFT       FBMethod = "dechirp-fft"
	// FBUpDown jointly estimates bias and timing from one preamble up
	// chirp and one SFD down chirp, cancelling onset-error-induced bias.
	// It needs captures spanning the whole preamble + SFD (~12.5 chirps)
	// instead of the paper's 2; Simulation sizes its captures accordingly.
	FBUpDown FBMethod = "updown"
)

// Config configures a Gateway.
type Config struct {
	// Params is the LoRa channel configuration (DefaultParams(7) if SF is
	// unset).
	Params lora.Params
	// SDR models the attached SDR receiver; nil uses an ideal 8-bit
	// RTL-SDR with zero bias.
	SDR *sdr.Receiver
	// SampleRate of SDR captures (sdr.DefaultSampleRate when 0).
	SampleRate float64
	// Onset selects the timestamping detector (OnsetAIC by default).
	Onset OnsetMethod
	// FB selects the bias estimator (FBLinearRegression by default;
	// FBLeastSquares is the low-SNR option at higher CPU cost).
	FB FBMethod
	// ToleranceHz is the replay-detection deviation threshold
	// (core.DefaultToleranceHz when 0). Ignored when Server is set — a
	// shared network server owns its own detection configuration.
	ToleranceHz float64
	// GatewayID identifies this gateway in the PHY observations it emits
	// ("gw-0" when empty). Only meaningful in multi-gateway deployments.
	GatewayID string
	// Server, when non-nil, is the shared network server this gateway
	// feeds its observations to: several gateways pointing at one server
	// form a multi-receiver deployment with frame dedup and FB fusion.
	// Nil embeds a private server (single-gateway mode).
	Server *netserver.NetworkServer
	// Workers bounds the ProcessBatch worker pool (GOMAXPROCS when 0).
	Workers int
	// Rand drives the SDR phase and the least-squares optimizer; required.
	Rand *rand.Rand
}

// pipeline is one worker's private processing chain: SDR front end, onset
// detector and FB estimator all hold per-instance scratch (FFT buffers,
// dechirp templates), so a pipeline must never be shared between
// goroutines.
type pipeline struct {
	receiver  *sdr.Receiver
	onset     core.OnsetDetector
	estimator core.FBEstimator
	updown    *core.UpDownEstimator // non-nil when FBUpDown is selected

	// rng is the pipeline's reusable batch random source: ProcessBatch
	// reseeds it per uplink instead of allocating a fresh generator (a
	// ~5 KB rngSource each) for every job. It runs on fastSeedSource so the
	// per-uplink reseed is one store, not a ~10 µs table rebuild.
	rng *rand.Rand
	// sdrCap is the worker's reusable down-converted capture header; its IQ
	// buffer cycles through the capture pool each uplink.
	sdrCap sdr.Capture
}

// fastSeedSource is a rand.Source64 on a splitmix64 counter stream.
// rand.NewSource's generator rebuilds a ~5 KB lagged-Fibonacci table on
// every Seed; ProcessBatch reseeds per uplink, which made seeding alone
// ~4% of batch time. A counter + finalizer mix seeds in O(1) with more
// than enough statistical quality for phase draws and noise seeding.
type fastSeedSource struct{ state uint64 }

func (s *fastSeedSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *fastSeedSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *fastSeedSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// setRand points the pipeline's stochastic stages (SDR phase draw,
// least-squares optimizer) at the given source.
func (p *pipeline) setRand(rng *rand.Rand) {
	p.receiver.Rand = rng
	if ls, ok := p.estimator.(*core.LeastSquaresEstimator); ok {
		ls.Rand = rng
	}
}

// Gateway is a SoftLoRa gateway instance.
//
// ProcessUplink runs on the gateway's own serial pipeline and is not safe
// for concurrent use; ProcessBatch is the concurrent entry point (each
// worker owns a private pipeline). The bias database behind both lives in
// the gateway's network server (embedded unless Config.Server was set) and
// is safe for concurrent use.
type Gateway struct {
	params     lora.Params
	sampleRate float64
	fbMethod   FBMethod
	onsetMeth  OnsetMethod
	onsetF64   bool         // AIC detector float64 reference lane; set only by a determinism test
	recvProto  sdr.Receiver // per-worker receivers are stamped from this
	workers    int
	pipe       *pipeline // serial-path pipeline (ProcessUplink)
	gatewayID  string
	server     *netserver.NetworkServer

	rand       *rand.Rand
	seedOnce   sync.Once
	batchSeed  int64
	batchCount atomic.Int64 // ProcessBatch invocations, mixed into job seeds
	pipePool   sync.Pool    // *pipeline, reused across ProcessBatch calls
}

// CaptureChirps returns how many chirp times after the onset the gateway's
// SDR capture must span for the configured estimator: 4 for the paper's
// two-chirp analysis (with margin), preamble+4 for the up/down joint
// estimator, which needs the SFD.
func (g *Gateway) CaptureChirps() int {
	if g.fbMethod == FBUpDown {
		return g.params.PreambleChirps + 4
	}
	return 4
}

// Configuration errors.
var (
	ErrNilRand      = errors.New("softlora: Config.Rand must be set")
	ErrBadMethod    = errors.New("softlora: unknown method")
	ErrCaptureShort = errors.New("softlora: capture too short for onset + two chirps")
	ErrNilCapture   = errors.New("softlora: batch uplink has no capture")
)

// NewGateway validates the configuration and builds a Gateway.
func NewGateway(cfg Config) (*Gateway, error) {
	if cfg.Rand == nil {
		return nil, ErrNilRand
	}
	params := cfg.Params
	if params.SF == 0 {
		params = lora.DefaultParams(7)
	}
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("softlora: %w", err)
	}
	rate := cfg.SampleRate
	if rate == 0 {
		rate = sdr.DefaultSampleRate
	}
	switch cfg.Onset {
	case "", OnsetAIC, OnsetEnvelope, OnsetDechirp:
	default:
		return nil, fmt.Errorf("%w: onset %q", ErrBadMethod, cfg.Onset)
	}
	switch cfg.FB {
	case "", FBLinearRegression, FBLeastSquares, FBDechirpFFT, FBUpDown:
	default:
		return nil, fmt.Errorf("%w: fb %q", ErrBadMethod, cfg.FB)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	gatewayID := cfg.GatewayID
	if gatewayID == "" {
		gatewayID = "gw-0"
	}
	g := &Gateway{
		params:     params,
		sampleRate: rate,
		fbMethod:   cfg.FB,
		onsetMeth:  cfg.Onset,
		workers:    workers,
		gatewayID:  gatewayID,
		rand:       cfg.Rand,
	}
	if cfg.SDR != nil {
		g.recvProto = *cfg.SDR
	} else {
		g.recvProto = sdr.Receiver{ADCBits: 8}
	}
	// The serial pipeline keeps the caller's receiver instance (and its
	// random source) so single-uplink behaviour matches earlier versions.
	g.pipe = g.newPipeline()
	if cfg.SDR != nil {
		g.pipe.receiver = cfg.SDR
	}
	if g.pipe.receiver.Rand == nil {
		g.pipe.receiver.Rand = cfg.Rand
	}
	if ls, ok := g.pipe.estimator.(*core.LeastSquaresEstimator); ok {
		ls.Rand = cfg.Rand
	}
	if cfg.Server != nil {
		g.server = cfg.Server
	} else {
		g.server = netserver.New(netserver.Config{ToleranceHz: cfg.ToleranceHz})
	}
	return g, nil
}

// newPipeline builds a fresh processing chain with its own scratch state.
// The pipeline's random source is unset; callers must setRand before use
// (batch workers reseed and install the pipeline's own rng per uplink).
func (g *Gateway) newPipeline() *pipeline {
	p := &pipeline{rng: rand.New(&fastSeedSource{})}
	recv := g.recvProto
	p.receiver = &recv
	switch g.onsetMeth {
	case "", OnsetAIC:
		p.onset = &core.AICDetector{LowPassCutoffHz: core.DefaultPrefilterCutoffHz, Float64: g.onsetF64}
	case OnsetEnvelope:
		p.onset = &core.EnvelopeDetector{LowPassCutoffHz: core.DefaultPrefilterCutoffHz}
	case OnsetDechirp:
		p.onset = &core.DechirpOnsetDetector{Params: g.params}
	}
	switch g.fbMethod {
	case "", FBLinearRegression:
		p.estimator = &core.LinearRegressionEstimator{Params: g.params}
	case FBLeastSquares:
		p.estimator = &core.LeastSquaresEstimator{Params: g.params, Decimation: 4}
	case FBDechirpFFT:
		p.estimator = &core.DechirpFFTEstimator{Params: g.params}
	case FBUpDown:
		p.updown = &core.UpDownEstimator{Params: g.params}
	}
	return p
}

// Params returns the gateway's channel configuration.
func (g *Gateway) Params() lora.Params { return g.params }

// UplinkReport is the outcome of processing one uplink.
type UplinkReport struct {
	// ArrivalTime is the PHY-timestamped preamble onset on the channel
	// timeline (seconds).
	ArrivalTime float64
	// OnsetSample is the onset position within the SDR capture.
	OnsetSample int
	// FrequencyBiasHz is the estimated δ = δTx − δRx.
	FrequencyBiasHz float64
	// FrequencyBiasPPM expresses the bias in ppm of the channel center.
	FrequencyBiasPPM float64
	// FBJitterHz is the PHY stage's estimate of this frame's FB
	// estimation jitter (1σ, Hz) through this link — the weight a
	// network server uses when fusing multi-gateway estimates.
	FBJitterHz float64
	// Verdict is the replay-detection decision.
	Verdict Verdict
	// Accepted reports whether the frame's data was accepted for
	// timestamping (false for replays).
	Accepted bool
	// Timestamps are the reconstructed global times of the frame's data
	// records (nil when the frame is rejected).
	Timestamps []float64
}

// ProcessUplink runs the full SoftLoRa pipeline on an antenna-level capture:
// SDR down-conversion, PHY onset timestamping, FB estimation on the second
// preamble chirp, replay detection against the claimed device, and
// sync-free timestamp reconstruction for the frame's elapsed-time records.
//
// The capture must include noise lead-in before the frame and at least two
// preamble chirps after the onset. claimedID is the source device ID
// decoded from the frame by the commodity LoRaWAN radio.
//
// ProcessUplink runs on the gateway's serial pipeline and must not be
// called concurrently; use ProcessBatch for concurrent processing.
func (g *Gateway) ProcessUplink(cap *radio.Capture, claimedID string, records []timestamp.FrameRecord) (*UplinkReport, error) {
	report := &UplinkReport{}
	if err := g.phyStage(g.pipe, cap, report); err != nil {
		return nil, err
	}
	g.commitStage(claimedID, "", 0, records, report, nil)
	return report, nil
}

// phyStage runs the side-effect-free half of the pipeline on one capture:
// SDR down-conversion, PHY onset timestamping, FB estimation on the second
// preamble chirp, and FB-jitter estimation from the link's measured SNR. It
// fills the report's measurement fields and touches nothing shared — no
// database, no verdict — so distinct pipelines may run it concurrently.
// Batch callers hand slots of a per-batch report slab so the steady state
// allocates nothing per uplink.
func (g *Gateway) phyStage(p *pipeline, capt *radio.Capture, report *UplinkReport) error {
	sdrCap := &p.sdrCap
	if err := p.receiver.DownconvertInto(sdrCap, capt); err != nil {
		return fmt.Errorf("softlora: %w", err)
	}
	// The down-converted capture is consumed entirely within this call;
	// recycling its buffer keeps the batch path free of per-uplink
	// multi-hundred-KB allocations.
	defer sdrCap.Release()
	onset, err := p.onset.DetectOnset(sdrCap.IQ, sdrCap.Rate)
	if err != nil {
		return fmt.Errorf("softlora: %w", err)
	}
	n := int(g.params.SamplesPerChirp(sdrCap.Rate))
	var fbHz float64
	fbStart := onset.Sample
	arrival := sdrCap.TimeOf(onset.Sample)
	if p.updown != nil {
		res, udErr := p.updown.Estimate(sdrCap.IQ, onset.Sample, sdrCap.Rate)
		if udErr != nil {
			return fmt.Errorf("softlora: %w", udErr)
		}
		fbHz = res.DeltaHz
		// The joint estimator also refines the PHY timestamp.
		arrival += res.TimingCorrection
	} else {
		// The first captured chirp yields the timestamp; the second yields
		// the FB (§5.1).
		second := onset.Sample + n
		if second+n > len(sdrCap.IQ) {
			return fmt.Errorf("%w: onset %d, capture %d", ErrCaptureShort, onset.Sample, len(sdrCap.IQ))
		}
		est, estErr := p.estimator.EstimateFB(sdrCap.IQ[second:second+n], sdrCap.Rate)
		if estErr != nil {
			return fmt.Errorf("softlora: %w", estErr)
		}
		fbHz = est.DeltaHz
		fbStart = second
	}
	*report = UplinkReport{
		ArrivalTime:      arrival,
		OnsetSample:      onset.Sample,
		FrequencyBiasHz:  fbHz,
		FrequencyBiasPPM: g.params.PPM(fbHz),
		FBJitterHz:       fbJitterHz(sdrCap.IQ, onset.Sample, fbStart, n, sdrCap.Rate),
	}
	return nil
}

// fbJitterHz estimates the 1σ FB estimation jitter of one frame from the
// capture itself: noise power from the lead-in before the onset, signal
// power from the chirp the estimator analyzed, folded through the
// Cramér-Rao frequency bound σ_f ≈ (rate/2π)·sqrt(6/(SNR·n³)). Real
// estimators sit above the bound (the PHY onset feeds timing error into δ,
// see fb.go), so this is a relative fusion weight, not an absolute error
// bar; observations through noisier links weigh proportionally less. Falls
// back to DefaultJitterHz (the paper's 120 Hz estimation resolution) when
// the capture has no usable lead-in.
func fbJitterHz(iq []complex128, onset, fbStart, n int, rate float64) float64 {
	noiseLo := onset - 1024
	if noiseLo < 0 {
		noiseLo = 0
	}
	if fbStart+n > len(iq) {
		n = len(iq) - fbStart
	}
	if onset-noiseLo < 16 || n < 16 {
		return netserver.DefaultJitterHz
	}
	var noise float64
	for _, v := range iq[noiseLo:onset] {
		re, im := real(v), imag(v)
		noise += re*re + im*im
	}
	noise /= float64(onset - noiseLo)
	var sig float64
	for _, v := range iq[fbStart : fbStart+n] {
		re, im := real(v), imag(v)
		sig += re*re + im*im
	}
	sig = sig/float64(n) - noise
	if noise <= 0 || sig <= 0 {
		return netserver.DefaultJitterHz
	}
	snr := sig / noise
	nf := float64(n)
	j := rate / (2 * math.Pi) * math.Sqrt(6/(snr*nf*nf*nf))
	if j < 1 {
		j = 1
	}
	return j
}

// commitStage is the deterministic half of the pipeline: it wraps the PHY
// measurements into an observation for the gateway's network server, runs
// the §7.2 verdict (the only shared-state touch in the whole pipeline) and
// finalizes the report — verdict, acceptance, and reconstructed timestamps
// (backed by ts when its capacity suffices). Callers own the commit order:
// ProcessBatch invokes it in uplink-index order so verdicts and database
// state do not depend on PHY-stage scheduling.
func (g *Gateway) commitStage(claimedID, frameID string, uplinkIndex int64, records []timestamp.FrameRecord, report *UplinkReport, ts []float64) {
	verdict := g.server.Check(g.observation(report, claimedID, frameID, uplinkIndex))
	report.Verdict = verdictFromCore(verdict)
	report.Accepted = report.Verdict != VerdictReplay
	if report.Accepted {
		if cap(ts) >= len(records) {
			report.Timestamps = ts[:len(records)]
		} else {
			report.Timestamps = make([]float64, len(records))
		}
		for i, r := range records {
			report.Timestamps[i] = timestamp.Reconstruct(report.ArrivalTime, r)
		}
	}
}

// verdictFromCore maps a core verdict into the gateway-level vocabulary.
func verdictFromCore(v core.Verdict) Verdict {
	switch v {
	case core.VerdictReplay:
		return VerdictReplay
	case core.VerdictEnrolling:
		return VerdictEnrolling
	case core.VerdictPending:
		return VerdictPending
	default:
		return VerdictGenuine
	}
}

// Observe runs only the PHY stage on a capture and returns the resulting
// observation for a shared network server — the multi-gateway entry point:
// each gateway that heard the frame Observes its own capture (tagging it
// with the common frameID), and the server dedups, fuses and judges the
// frame once. Observe never touches the bias database. It runs on the
// gateway's serial pipeline and must not be called concurrently with
// ProcessUplink or another Observe on the same gateway.
func (g *Gateway) Observe(cap *radio.Capture, claimedID, frameID string) (netserver.PHYObservation, error) {
	var report UplinkReport
	if err := g.phyStage(g.pipe, cap, &report); err != nil {
		return netserver.PHYObservation{}, err
	}
	return g.observation(&report, claimedID, frameID, 0), nil
}

// observation wraps a PHY-stage report into the network-server observation
// for the claimed device and frame — the one place the report-to-observation
// field mapping lives, shared by the single-gateway commit stage and the
// multi-gateway Observe path.
func (g *Gateway) observation(report *UplinkReport, claimedID, frameID string, uplinkIndex int64) netserver.PHYObservation {
	return netserver.PHYObservation{
		GatewayID:   g.gatewayID,
		DeviceID:    claimedID,
		FrameID:     frameID,
		UplinkIndex: uplinkIndex,
		FBHz:        report.FrequencyBiasHz,
		JitterHz:    report.FBJitterHz,
		ArrivalTime: report.ArrivalTime,
		OnsetSample: report.OnsetSample,
	}
}

// NetworkServer returns the server holding this gateway's bias database —
// the embedded single-gateway one unless Config.Server was provided.
func (g *Gateway) NetworkServer() *netserver.NetworkServer { return g.server }

// EnrollDevice pre-loads a device's known bias (offline database
// construction, §7.2) into the gateway's network server. A non-finite
// bias (NaN or ±Inf) enrolls nothing.
func (g *Gateway) EnrollDevice(id string, biasHz float64) {
	g.server.Enroll(id, biasHz, core.DefaultEnrollFrames)
}

// DeviceBias returns the learned bias state for a device.
func (g *Gateway) DeviceBias(id string) (mean float64, frames int, ok bool) {
	rec, ok := g.server.Record(id)
	if !ok {
		return 0, 0, false
	}
	return rec.Mean, rec.Count, true
}

// SaveBiasDatabase writes the FB database as JSON.
func (g *Gateway) SaveBiasDatabase(w io.Writer) error { return g.server.Save(w) }

// LoadBiasDatabase replaces the FB database from JSON. Records are
// validated; a hostile or corrupted database is rejected with
// core.ErrBadDatabase and the current database is kept.
func (g *Gateway) LoadBiasDatabase(r io.Reader) error { return g.server.Load(r) }

// Uplink is one queued capture for batch processing: the antenna-level
// capture plus the frame metadata the commodity radio decoded from it.
type Uplink struct {
	Capture   *radio.Capture
	ClaimedID string
	Records   []timestamp.FrameRecord
}

// BatchResult pairs one batch uplink's report with its processing error.
// Exactly one of Report and Err is non-nil.
type BatchResult struct {
	Report *UplinkReport
	Err    error
}

// batchRandSeed lazily draws the batch seed base from the gateway's random
// source (once, so serial-path determinism is unaffected until the first
// batch call).
func (g *Gateway) batchRandSeed() int64 {
	g.seedOnce.Do(func() { g.batchSeed = g.rand.Int63() })
	return g.batchSeed
}

// jobSeed derives a decorrelated per-uplink seed (splitmix64 finalizer) so
// batch results are reproducible for a given Config.Rand regardless of
// worker count or scheduling order. The batch ordinal is mixed in so
// successive batches draw independent randomness for the same uplink index
// (matching the serial path, which advances Config.Rand per uplink).
func jobSeed(base, batchNo int64, i int) int64 {
	z := uint64(base) + uint64(batchNo)*0xD1B54A32D192ED03 + (uint64(i)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z &^ (1 << 63))
}

// ProcessBatch fans a batch of uplink captures across a bounded worker pool
// (Config.Workers, default GOMAXPROCS). Each worker builds a private
// pipeline — its own SDR front end, onset detector and FB estimator with
// their plans and scratch — and runs only the side-effect-free PHY stage,
// so the DSP hot path runs without locks or allocation. Once every PHY
// stage has finished, the detection/commit stage applies the §7.2 verdict
// in uplink-index order on the calling goroutine.
//
// Results are positionally aligned with uplinks. Stochastic stages draw
// from a per-uplink seed derived from Config.Rand and the batch ordinal,
// and verdicts commit in uplink-index order, so a batch's results AND the
// bias-database state after it are bit-identical regardless of worker
// count or scheduling — including when one device appears several times in
// the batch. Successive batches still draw independent randomness per
// uplink.
//
// Cancelling ctx stops workers from starting further uplinks; already
// started ones finish. Cancelled entries report ctx's error.
func (g *Gateway) ProcessBatch(ctx context.Context, uplinks []Uplink) []BatchResult {
	results := make([]BatchResult, len(uplinks))
	if len(uplinks) == 0 {
		return results
	}
	workers := g.workers
	if workers > len(uplinks) {
		workers = len(uplinks)
	}
	if workers < 1 {
		workers = 1
	}
	// Reports and reconstructed timestamps come out of two batch-level
	// slabs instead of per-uplink allocations: the record counts are known
	// upfront, workers write disjoint slots, and the whole batch hands
	// ownership to the caller in one piece.
	reports := make([]UplinkReport, len(uplinks))
	tsOff := make([]int, len(uplinks)+1)
	for i, u := range uplinks {
		tsOff[i+1] = tsOff[i] + len(u.Records)
	}
	tsSlab := make([]float64, tsOff[len(uplinks)])
	seedBase := g.batchRandSeed()
	batchNo := g.batchCount.Add(1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Workers reuse pooled pipelines so the warmed scratch (dechirp
			// templates, FFT buffers) survives across batches.
			p, ok := g.pipePool.Get().(*pipeline)
			if !ok {
				p = g.newPipeline()
			}
			defer g.pipePool.Put(p)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(uplinks) {
					return
				}
				if err := ctx.Err(); err != nil {
					results[i] = BatchResult{Err: err}
					continue
				}
				if uplinks[i].Capture == nil {
					results[i] = BatchResult{Err: ErrNilCapture}
					continue
				}
				// Reseeding the pipeline's own generator replaces the old
				// per-uplink rand.New (a fresh ~5 KB source per job) and
				// draws the identical stream for a given seed.
				p.rng.Seed(jobSeed(seedBase, batchNo, i))
				p.setRand(p.rng)
				if err := g.phyStage(p, uplinks[i].Capture, &reports[i]); err != nil {
					results[i] = BatchResult{Err: err}
				}
			}
		}()
	}
	wg.Wait()
	// Deterministic commit stage: every verdict is applied in uplink-index
	// order, so the database sees the same update sequence no matter how
	// the PHY stages above were scheduled.
	for i := range uplinks {
		if results[i].Err != nil {
			continue
		}
		ts := tsSlab[tsOff[i]:tsOff[i]:tsOff[i+1]]
		g.commitStage(uplinks[i].ClaimedID, "", int64(i), uplinks[i].Records, &reports[i], ts)
		results[i] = BatchResult{Report: &reports[i]}
	}
	return results
}
