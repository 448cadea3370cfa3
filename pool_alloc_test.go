package softlora

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestUplinkBatchPooledSteadyStateBytes is the end-to-end allocation
// regression for the batch pipeline: once each worker's parked pipeline is
// warm — its scratch, its plans and the capture buffer it down-converts
// into — a ProcessBatch round must not reallocate the multi-hundred-KB
// capture buffers. The captures are rendered before the measured rounds,
// because each Channel.Receive allocates the capture it returns. Without
// buffer reuse, a 4-uplink round would allocate ~1 MB of down-converted
// captures alone; with the per-uplink rand sources replaced by reseeded
// pipeline generators and the reports/timestamps slab-allocated per batch,
// a round costs ~1 KB (the result, report and timestamp slabs, the worker
// goroutines). The 16 KB budget leaves room for that and no pipeline
// rebuild.
func TestUplinkBatchPooledSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the byte budget is pinned in normal builds; race builds check the batch path for data races")
	}
	const batch = 4
	rng := rand.New(rand.NewSource(42))
	gw, err := NewGateway(Config{Rand: rng, FB: FBDechirpFFT, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim := &Simulation{Gateway: gw, NoiseFloordBm: -100, Rand: rng}
	devs := make([]*SimDevice, batch)
	for i := range devs {
		devs[i] = NewSimDevice(fmt.Sprintf("dev-%d", i), -23, 40, 14, 80, 100)
		gw.EnrollDevice(devs[i].ID, devs[i].Transmitter.BiasHz(gw.Params()))
	}
	// Warm-up rounds size every worker pipeline's scratch, plans and
	// capture buffer; three more are measured.
	const warmup, rounds = 2, 3
	batches := make([][]Uplink, warmup+rounds)
	now := 10.0
	for b := range batches {
		batches[b] = make([]Uplink, batch)
		for i, d := range devs {
			d.Record(now-1, nil)
			capt, records, err := sim.RenderUplink(d, now)
			if err != nil {
				t.Fatal(err)
			}
			batches[b][i] = Uplink{Capture: capt, ClaimedID: d.ID, Records: records}
			now += 2
		}
	}
	round := func(ups []Uplink) {
		for i, r := range gw.ProcessBatch(context.Background(), ups) {
			if r.Err != nil {
				t.Fatalf("uplink %d: %v", i, r.Err)
			}
		}
	}
	for _, ups := range batches[:warmup] {
		round(ups)
	}
	// A worker builds its pipeline at its first uplink, and a host that ran
	// both workers back to back may have started only one. Repeat warm-up
	// rounds until both pipelines are parked; on one CPU the second worker
	// never gets an uplink, so the repeats are bounded.
	for extra := 0; len(gw.idle) < 2 && extra < 100; extra++ {
		round(batches[extra%warmup])
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ups := range batches[warmup:] {
		round(ups)
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	if perRound > 16<<10 {
		t.Errorf("steady-state batch round allocated %d bytes, want <= 16 KB", perRound)
	}
}
