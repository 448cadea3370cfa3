package softlora

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"softlora/internal/core"
)

// batchFixture renders a batch of uplink captures through a deterministic
// simulation and returns a fresh gateway (with the given worker count) plus
// the jobs. Rendering uses its own rand stream so every fixture is
// identical regardless of worker count.
func batchFixture(t *testing.T, workers, nUplinks int) (*Gateway, []Uplink) {
	t.Helper()
	return batchFixtureWith(t, Config{FB: FBDechirpFFT, Workers: workers}, nUplinks)
}

// batchFixtureWith is batchFixture for any gateway configuration; cfg.Rand
// is set from the fixture's seed.
func batchFixtureWith(t *testing.T, cfg Config, nUplinks int) (*Gateway, []Uplink) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	cfg.Rand = rng
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := &Simulation{Gateway: gw, NoiseFloordBm: -100, Rand: rng}
	jobs := make([]Uplink, nUplinks)
	now := 10.0
	for i := range jobs {
		dev := NewSimDevice("dev", -23, 40, 14, 80, 100)
		gw.EnrollDevice(dev.ID, dev.Transmitter.BiasHz(gw.Params()))
		dev.Record(now-1, []byte{byte(i)})
		cap, records, err := sim.RenderUplink(dev, now)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = Uplink{Capture: cap, ClaimedID: dev.ID, Records: records}
		now += 2
	}
	return gw, jobs
}

func TestProcessBatchReportsAllUplinks(t *testing.T) {
	gw, jobs := batchFixture(t, 4, 6)
	results := gw.ProcessBatch(context.Background(), jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d uplinks", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("uplink %d: %v", i, r.Err)
		}
		if r.Report == nil {
			t.Fatalf("uplink %d: nil report", i)
		}
		if r.Report.Verdict != VerdictGenuine {
			t.Errorf("uplink %d: verdict %v", i, r.Report.Verdict)
		}
		if ppm := r.Report.FrequencyBiasPPM; math.Abs(ppm-(-23)) > 1 {
			t.Errorf("uplink %d: bias %.2f ppm, want ≈ -23", i, ppm)
		}
	}
}

// TestProcessBatchDeterministicAcrossWorkerCounts is the reproducibility
// contract: per-uplink seeds are derived from Config.Rand, so results must
// not depend on the worker pool size or scheduling order. It runs both
// gateway pipelines: the default AIC onset with the dechirp-FFT estimator,
// and the low-SNR dechirp onset with the up/down estimator.
func TestProcessBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, pipe := range []struct {
		onset OnsetMethod
		fb    FBMethod
	}{
		{OnsetAIC, FBDechirpFFT},
		{OnsetDechirp, FBUpDown},
	} {
		run := func(workers int) ([]BatchResult, []byte) {
			t.Helper()
			gw, jobs := batchFixtureWith(t, Config{Onset: pipe.onset, FB: pipe.fb, Workers: workers}, 8)
			res := gw.ProcessBatch(context.Background(), jobs)
			var buf bytes.Buffer
			if err := gw.SaveBiasDatabase(&buf); err != nil {
				t.Fatal(err)
			}
			return res, buf.Bytes()
		}
		res1, db1 := run(1)
		res8, db8 := run(8)
		for i := range res1 {
			// The fixture's uplinks are all clean, so an error on either
			// side would leave nothing to compare.
			if res1[i].Err != nil || res8[i].Err != nil {
				t.Fatalf("%s+%s uplink %d: errors %v (1 worker), %v (8 workers)", pipe.onset, pipe.fb, i, res1[i].Err, res8[i].Err)
			}
			a, b := res1[i].Report, res8[i].Report
			if math.Float64bits(a.FrequencyBiasHz) != math.Float64bits(b.FrequencyBiasHz) ||
				math.Float64bits(a.ArrivalTime) != math.Float64bits(b.ArrivalTime) ||
				a.OnsetSample != b.OnsetSample {
				t.Errorf("%s+%s uplink %d: 1-worker %+v vs 8-worker %+v", pipe.onset, pipe.fb, i, a, b)
			}
		}
		if !bytes.Equal(db1, db8) {
			t.Errorf("%s+%s: serialized bias database differs between 1 and 8 workers:\n%s\nvs\n%s", pipe.onset, pipe.fb, db1, db8)
		}
	}
}

// TestProcessBatchSameDeviceDeterministicCommit is the ordered-commit
// contract on the paper's core security decision: a batch containing
// several uplinks from the SAME device must yield identical verdicts and
// an identical serialized bias database for every worker count. Under the
// old interleaved per-worker Check, the order the device's frames folded
// into the EWMA database depended on goroutine scheduling, so the learned
// state (and potentially the verdicts) varied run to run; the two-stage
// pipeline commits in uplink-index order after the PHY stage, making both
// bit-identical.
func TestProcessBatchSameDeviceDeterministicCommit(t *testing.T) {
	run := func(workers int) ([]Verdict, []byte) {
		t.Helper()
		// batchFixture renders every uplink from the same device "dev";
		// the per-uplink noise draws differ, so each frame carries a
		// different FB estimate and the database fold order matters.
		gw, jobs := batchFixture(t, workers, 8)
		verdicts := make([]Verdict, len(jobs))
		for i, r := range gw.ProcessBatch(context.Background(), jobs) {
			if r.Err != nil {
				t.Fatalf("workers=%d uplink %d: %v", workers, i, r.Err)
			}
			verdicts[i] = r.Report.Verdict
		}
		var buf bytes.Buffer
		if err := gw.SaveBiasDatabase(&buf); err != nil {
			t.Fatal(err)
		}
		return verdicts, buf.Bytes()
	}
	wantVerdicts, wantDB := run(1)
	for _, workers := range []int{4, 8} {
		verdicts, db := run(workers)
		for i := range verdicts {
			if verdicts[i] != wantVerdicts[i] {
				t.Errorf("workers=%d uplink %d: verdict %s, want %s (workers=1)",
					workers, i, verdicts[i], wantVerdicts[i])
			}
		}
		if !bytes.Equal(db, wantDB) {
			t.Errorf("workers=%d: serialized bias database differs from workers=1:\n%s\nvs\n%s",
				workers, db, wantDB)
		}
	}
}

// TestProcessBatchDeterministicAcrossFloatLanes pins the float32 decision
// lanes' bit-identity contract: the AIC detector's coarse/mid stages run in
// float32 by default and in float64 on its reference lane, but both lanes
// feed the same dense float64 final refinement, so verdicts and the
// serialized bias database must be byte-identical with the lane switched
// on or off — and across worker counts, since the lanes live in per-worker
// pipelines.
func TestProcessBatchDeterministicAcrossFloatLanes(t *testing.T) {
	run := func(workers int, f64 bool) ([]Verdict, []byte) {
		t.Helper()
		gw, jobs := batchFixture(t, workers, 8)
		gw.onsetF64 = f64
		verdicts := make([]Verdict, len(jobs))
		for i, r := range gw.ProcessBatch(context.Background(), jobs) {
			if r.Err != nil {
				t.Fatalf("workers=%d float64=%v uplink %d: %v", workers, f64, i, r.Err)
			}
			verdicts[i] = r.Report.Verdict
		}
		// Every pipeline the workers drew is parked once the batch returns.
		// Record their lanes, so the run fails if the switch never reaches
		// them and the comparison below only matches the float32 lane
		// against itself.
		var lanes []bool
		for len(gw.idle) > 0 {
			det, ok := (<-gw.idle).onset.(*core.AICDetector)
			lanes = append(lanes, ok && det.Float64)
		}
		if len(lanes) == 0 {
			t.Fatalf("workers=%d: no worker pipeline was built", workers)
		}
		for _, lane := range lanes {
			if lane != f64 {
				t.Fatalf("workers=%d: a worker's AIC detector ran with Float64=%v, want %v", workers, lane, f64)
			}
		}
		var buf bytes.Buffer
		if err := gw.SaveBiasDatabase(&buf); err != nil {
			t.Fatal(err)
		}
		return verdicts, buf.Bytes()
	}
	wantVerdicts, wantDB := run(1, false)
	for _, workers := range []int{1, 4} {
		for _, f64 := range []bool{false, true} {
			if workers == 1 && !f64 {
				continue
			}
			verdicts, db := run(workers, f64)
			for i := range verdicts {
				if verdicts[i] != wantVerdicts[i] {
					t.Errorf("workers=%d float64=%v uplink %d: verdict %s, want %s",
						workers, f64, i, verdicts[i], wantVerdicts[i])
				}
			}
			if !bytes.Equal(db, wantDB) {
				t.Errorf("workers=%d float64=%v: serialized bias database differs from the float32 workers=1 run",
					workers, f64)
			}
		}
	}
}

func TestProcessBatchRepeatable(t *testing.T) {
	// Two gateways built from the same seed replay the same batch
	// SEQUENCE bit for bit, while successive batches within one gateway
	// draw fresh per-uplink randomness (the batch ordinal is mixed into
	// the job seeds, as the single-capture calls advance Config.Rand).
	gwA, jobsA := batchFixture(t, 2, 3)
	gwB, jobsB := batchFixture(t, 2, 3)
	a1 := gwA.ProcessBatch(context.Background(), jobsA)
	a2 := gwA.ProcessBatch(context.Background(), jobsA)
	b1 := gwB.ProcessBatch(context.Background(), jobsB)
	b2 := gwB.ProcessBatch(context.Background(), jobsB)
	sameDraws := true
	for i := range a1 {
		if a1[i].Err != nil || a2[i].Err != nil || b1[i].Err != nil || b2[i].Err != nil {
			t.Fatalf("uplink %d errored: %v / %v / %v / %v", i, a1[i].Err, a2[i].Err, b1[i].Err, b2[i].Err)
		}
		if a1[i].Report.FrequencyBiasHz != b1[i].Report.FrequencyBiasHz ||
			a2[i].Report.FrequencyBiasHz != b2[i].Report.FrequencyBiasHz {
			t.Errorf("uplink %d: same seed and batch ordinal produced different bias", i)
		}
		if a1[i].Report.FrequencyBiasHz != a2[i].Report.FrequencyBiasHz {
			sameDraws = false
		}
	}
	if sameDraws {
		t.Error("successive batches repeated identical stochastic draws for every uplink")
	}
}

func TestProcessBatchCancelledContext(t *testing.T) {
	gw, jobs := batchFixture(t, 2, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := gw.ProcessBatch(ctx, jobs)
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("uplink %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestProcessBatchNilCapture(t *testing.T) {
	gw, jobs := batchFixture(t, 2, 2)
	jobs[1].Capture = nil
	results := gw.ProcessBatch(context.Background(), jobs)
	if results[0].Err != nil {
		t.Errorf("uplink 0: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, ErrNilCapture) {
		t.Errorf("uplink 1: err = %v, want ErrNilCapture", results[1].Err)
	}
}

func TestProcessBatchEmpty(t *testing.T) {
	gw, _ := batchFixture(t, 2, 1)
	if res := gw.ProcessBatch(context.Background(), nil); len(res) != 0 {
		t.Errorf("empty batch returned %d results", len(res))
	}
}

// TestUplinkBatchMatchesDevices drives the simulation-level batch API end
// to end: every device's records must come back timestamped and genuine.
func TestUplinkBatchMatchesDevices(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	gw, err := NewGateway(Config{Rand: rng, FB: FBDechirpFFT, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim := &Simulation{Gateway: gw, NoiseFloordBm: -100, Rand: rng}
	var ups []SimUplink
	now := 10.0
	for i := 0; i < 5; i++ {
		dev := NewSimDevice("node", -23, 40, 14, 80, 100)
		gw.EnrollDevice(dev.ID, dev.Transmitter.BiasHz(gw.Params()))
		dev.Record(now-2, []byte{byte(i)})
		ups = append(ups, SimUplink{Device: dev, Time: now})
		now += 3
	}
	results, err := sim.UplinkBatch(context.Background(), ups)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("uplink %d: %v", i, r.Err)
		}
		if !r.Report.Accepted {
			t.Errorf("uplink %d rejected", i)
		}
		if len(r.Report.Timestamps) != len(r.Records) {
			t.Errorf("uplink %d: %d timestamps for %d records", i, len(r.Report.Timestamps), len(r.Records))
		}
		want := ups[i].Time - 2
		if got := r.Report.Timestamps[0]; math.Abs(got-want) > 0.01 {
			t.Errorf("uplink %d: reconstructed %f, want ≈ %f", i, got, want)
		}
	}
}

// TestProcessBatchConcurrentStress exists primarily for `go test -race
// -run Batch`: many workers hammering the shared replay database and their
// private pipelines at once. Then overlapping calls on a one-worker
// gateway share its one-slot pipeline pool: two ProcessBatch calls, then a
// ProcessBatch beside a run of ProcessUplink calls (after a first batch, so
// only the single-capture calls draw from Config.Rand). The second caller
// builds a pipeline of its own, and parking it beside the first must drop
// it, not block.
func TestProcessBatchConcurrentStress(t *testing.T) {
	gw, jobs := batchFixture(t, 8, 16)
	for round := 0; round < 2; round++ {
		for i, r := range gw.ProcessBatch(context.Background(), jobs) {
			if r.Err != nil {
				t.Fatalf("round %d uplink %d: %v", round, i, r.Err)
			}
		}
	}
	gw1, jobs1 := batchFixture(t, 1, 8)
	batch := func() error {
		for _, r := range gw1.ProcessBatch(context.Background(), jobs1) {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}
	single := func() error {
		for _, j := range jobs1 {
			if _, err := gw1.ProcessUplink(j.Capture, j.ClaimedID, j.Records); err != nil {
				return err
			}
		}
		return nil
	}
	for _, pair := range [][2]func() error{{batch, batch}, {batch, single}} {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for c, call := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[c] = call()
			}()
		}
		wg.Wait()
		for c, err := range errs {
			if err != nil {
				t.Errorf("overlapping call %d: %v", c, err)
			}
		}
	}
}
