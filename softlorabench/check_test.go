package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"softlora"
	"softlora/internal/core"
	"softlora/internal/netserver"
	"softlora/internal/timestamp"
)

// smallCorpus renders a 16-uplink instance of a gateway workload.
func smallCorpus(t *testing.T, spec gatewaySpec, seed int64) *corpus {
	t.Helper()
	spec.uplinks = 16
	c, err := buildCorpus(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.release)
	return c
}

// processOnce runs the corpus through a fresh gateway once.
func processOnce(t *testing.T, c *corpus, seed int64) []softlora.BatchResult {
	t.Helper()
	gw, err := c.newGateway(seed, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	return gw.ProcessBatch(context.Background(), c.uplinks)
}

func TestCheckUplinkNamesEachCorruption(t *testing.T) {
	c := smallCorpus(t, gatewayAIC, 3)
	res := processOnce(t, c, 3)
	var genuine, replay = -1, -1
	for i, rr := range res {
		if why := checkUplink(&c.truth[i], rr, c.spec.onsetTol); why != "" {
			t.Fatalf("uplink %d fails %q on the program's own output", i, why)
		}
		if c.truth[i].Replay {
			replay = i
		} else if len(c.truth[i].RecordTimes) > 0 {
			genuine = i
		}
	}
	if genuine < 0 || replay < 0 {
		t.Fatal("corpus lacks a genuine or a replayed uplink")
	}

	flipped := *res[genuine].Report
	flipped.Verdict, flipped.Accepted, flipped.Timestamps = softlora.VerdictReplay, false, nil
	if got := checkUplink(&c.truth[genuine], softlora.BatchResult{Report: &flipped}, c.spec.onsetTol); got != failVerdict {
		t.Errorf("genuine judged replay: got %q, want %q", got, failVerdict)
	}
	missed := *res[replay].Report
	missed.Verdict, missed.Accepted = softlora.VerdictGenuine, true
	if got := checkUplink(&c.truth[replay], softlora.BatchResult{Report: &missed}, c.spec.onsetTol); got != failVerdict {
		t.Errorf("replay judged genuine: got %q, want %q", got, failVerdict)
	}

	tr := &c.truth[genuine]
	late := *res[genuine].Report
	late.Timestamps = append([]float64(nil), late.Timestamps...)
	bound := timestamp.TimestampingError{
		BufferTime:       tr.SentAt - tr.RecordTimes[0],
		DriftPPM:         tr.DriftPPM,
		RadioUncertainty: c.spec.onsetTol,
		PropagationDelay: tr.PropDelay,
	}.Bound()
	late.Timestamps[0] = tr.RecordTimes[0] + bound + 1e-6
	if got := checkUplink(tr, softlora.BatchResult{Report: &late}, c.spec.onsetTol); got != failTimestamp {
		t.Errorf("timestamp past its bound: got %q, want %q", got, failTimestamp)
	}
	late.Timestamps[0] = math.NaN()
	if got := checkUplink(tr, softlora.BatchResult{Report: &late}, c.spec.onsetTol); got != failTimestamp {
		t.Errorf("NaN timestamp: got %q, want %q", got, failTimestamp)
	}

	if got := checkUplink(tr, softlora.BatchResult{Err: softlora.ErrCaptureShort}, c.spec.onsetTol); got != failError {
		t.Errorf("error result: got %q, want %q", got, failError)
	}
}

// smallStream judges a few three-copy frames, one replayed, through a
// windowed server and returns the ledger index, truth and events.
func smallStream(t *testing.T) (map[string]int, []bool, []netserver.FrameVerdict) {
	t.Helper()
	s := netserver.New(netserver.Config{Window: netserver.WindowConfig{Hold: windowHold, MaxReceivers: serverReceivers}})
	ids := []string{"a", "b", "c", "d"}
	for i, id := range ids {
		s.Enroll(id, -22e3+float64(i)*500, enrollFrames)
	}
	index := map[string]int{}
	replay := []bool{false, true, false, false}
	var obs []netserver.PHYObservation
	for k, id := range ids {
		fid := "fr-" + id
		index[fid] = k
		fb := -22e3 + float64(k)*500
		if replay[k] {
			fb += 609
		}
		for g := 0; g < serverReceivers; g++ {
			obs = append(obs, netserver.PHYObservation{
				GatewayID: "gw-" + string(rune('0'+g)), DeviceID: id, FrameID: fid,
				UplinkIndex: int64(k), FBHz: fb + float64(g), JitterHz: 40, ArrivalTime: 1 + float64(k)*1e-3,
			})
		}
	}
	events, err := s.CheckBatch(obs)
	if err != nil {
		t.Fatal(err)
	}
	return index, replay, append(events, s.DrainWindow()...)
}

func ledgerFailures(t *testing.T, index map[string]int, replay []bool, events []netserver.FrameVerdict) []string {
	t.Helper()
	l := newFrameLedger(index)
	if err := l.add(events); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(replay))
	for k, r := range replay {
		out[k] = l.checkFrame(k, r)
	}
	return out
}

func TestFrameLedgerNamesEachCorruption(t *testing.T) {
	index, replay, events := smallStream(t)
	for k, why := range ledgerFailures(t, index, replay, events) {
		if why != "" {
			t.Fatalf("frame %d fails %q on the program's own output", k, why)
		}
	}
	victim := events[0]
	k := index[victim.FrameID]

	dropped := append([]netserver.FrameVerdict(nil), events[1:]...)
	if got := ledgerFailures(t, index, replay, dropped)[k]; got != failDropped {
		t.Errorf("dropped verdict: got %q, want %q", got, failDropped)
	}
	duplicated := append(append([]netserver.FrameVerdict(nil), events...), victim)
	if got := ledgerFailures(t, index, replay, duplicated)[k]; got != failDuplicated {
		t.Errorf("duplicated verdict: got %q, want %q", got, failDuplicated)
	}
	flipped := append([]netserver.FrameVerdict(nil), events...)
	if flipped[0].Verdict == core.VerdictReplay {
		flipped[0].Verdict = core.VerdictGenuine
	} else {
		flipped[0].Verdict = core.VerdictReplay
	}
	if got := ledgerFailures(t, index, replay, flipped)[k]; got != failVerdict {
		t.Errorf("flipped verdict: got %q, want %q", got, failVerdict)
	}
	// A revision that flips the verdict away from the truth counts too.
	revised := append(append([]netserver.FrameVerdict(nil), events...), flipped[0])
	revised[len(revised)-1].Revised = true
	if got := ledgerFailures(t, index, replay, revised)[k]; got != failVerdict {
		t.Errorf("wrong revision: got %q, want %q", got, failVerdict)
	}
	if err := newFrameLedger(index).add([]netserver.FrameVerdict{{FrameID: "fr-unknown"}}); err == nil {
		t.Error("a verdict for a frame never sent was accepted")
	}
}

func TestCheckRecoveredCatchesAlteredRecord(t *testing.T) {
	live := netserver.New(netserver.Config{})
	for i := 0; i < 200; i++ {
		live.Enroll("dev-"+string(rune('A'+i%26))+string(rune('a'+i/26)), -22e3+float64(i), enrollFrames)
	}
	dir := t.TempDir()
	if err := live.SaveDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	recovered := netserver.New(netserver.Config{})
	if _, err := recovered.LoadDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	if err := checkRecovered(live, recovered); err != nil {
		t.Fatalf("faithful recovery rejected: %v", err)
	}
	recovered.Enroll("dev-Aa", -21e3, enrollFrames)
	err := checkRecovered(live, recovered)
	if err == nil || !strings.HasPrefix(err.Error(), "recovery:") {
		t.Errorf("altered recovered record: got %v, want a recovery error", err)
	}
}

// TestGatewayDigestIndependentOfWorkers is the ordered-commit contract the
// benchmark's determinism check relies on: every pass's outputs and the
// database after it are identical whatever the worker count, so replaying
// the reference at Workers 1 reproduces every pass digest.
func TestGatewayDigestIndependentOfWorkers(t *testing.T) {
	for _, spec := range []gatewaySpec{gatewayAIC, gatewayLowSNR} {
		t.Run(spec.name, func(t *testing.T) {
			spec.passes = 3
			c := smallCorpus(t, spec, 5)
			r := newRun(spec.name, 5)
			gw, err := c.newGateway(5, max(2, runtime.NumCPU()))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := buildReference(r, c, gw, nil)
			if err != nil {
				t.Fatal(err)
			}
			rp := newReplay(r, c, ref, 1)
			for p := 0; p < 2*spec.passes; p++ {
				if _, fresh, err := rp.pass(nil); err != nil {
					t.Fatal(err)
				} else if fresh != (p%spec.passes == 0) {
					t.Errorf("pass %d: fresh %v", p, fresh)
				}
			}
			if len(r.invalid) != 0 {
				t.Errorf("replay at Workers 1 invalidated the run: %v", r.invalid)
			}
			if r.attempted != int64(spec.passes*16) {
				t.Errorf("attempted %d operations, want %d: only the reference is judged", r.attempted, spec.passes*16)
			}
		})
	}
}

// TestReplayCatchesADifferentPass feeds the replay a reference whose digest
// no pass reproduces and asserts the run is invalidated by name, once.
func TestReplayCatchesADifferentPass(t *testing.T) {
	c := smallCorpus(t, gatewayAIC, 5)
	r := newRun(gatewayAIC.name, 5)
	ref := &reference{passDigest: []string{"corrupted", "corrupted"}}
	rp := newReplay(r, c, ref, 1)
	for p := 0; p < 3; p++ {
		if _, _, err := rp.pass(nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.invalid) != 1 || !strings.HasPrefix(r.invalid[0], "determinism:") {
		t.Errorf("invalid = %q, want one determinism failure", r.invalid)
	}
}

// TestRenderUplinkMatchesSimulation pins the generator to
// Simulation.RenderUplink: the same seed yields bit-identical captures.
func TestRenderUplinkMatchesSimulation(t *testing.T) {
	newSim := func() (*softlora.Simulation, *softlora.SimDevice) {
		gw, err := gatewayAIC.newGateway(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		dev := softlora.NewSimDevice("d", -23, 40, txPowerdBm, 80, 100)
		dev.Record(95, []byte{7})
		return &softlora.Simulation{Gateway: gw, NoiseFloordBm: noiseFloordBm, Rand: rand.New(rand.NewSource(9))}, dev
	}
	simA, devA := newSim()
	want, wantRecs, err := simA.RenderUplink(devA, 100)
	if err != nil {
		t.Fatal(err)
	}
	simB, devB := newSim()
	got, gotRecs, _, err := renderUplink(simB, devB, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IQ) != len(want.IQ) || got.Start != want.Start || len(gotRecs) != len(wantRecs) || gotRecs[0].Elapsed != wantRecs[0].Elapsed {
		t.Fatal("capture or records differ from RenderUplink's")
	}
	for i := range want.IQ {
		if got.IQ[i] != want.IQ[i] {
			t.Fatalf("sample %d: %v, RenderUplink %v", i, got.IQ[i], want.IQ[i])
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Parent: -1, Start: 0, End: 100, Allocs: 10},
		{Name: "a", Parent: 0, Start: 10, End: 40, Allocs: 3},
		{Name: "b", Parent: 0, Start: 30, End: 50, Allocs: 2}, // overlaps a
		{Name: "a", Parent: 0, Start: 70, End: 80},
	}}
	tot := tr.totals()
	if got := tot["root"].Self; got != 50 {
		t.Errorf("root self time %d, want 50 (100 minus the union 10–50 and 70–80)", got)
	}
	if got := tot["a"]; got.Self != 40 || got.Allocs != 3 {
		t.Errorf("a: %+v, want self 40 over both spans, 3 allocs", *got)
	}
	if got := tot["root"].Allocs; got != 5 {
		t.Errorf("root self allocs %d, want 5", got)
	}
}

// TestBenchmarkFileDeclaresTheMetrics keeps BENCHMARK.json and the metric
// tables the program reports from in step.
func TestBenchmarkFileDeclaresTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
}

// TestCalibratorKernel pins what the gateway rescaling relies on: the
// kernel is fixed work that never allocates, so it cannot disturb the
// program's heap, and its slowdown is a finite positive ratio.
func TestCalibratorKernel(t *testing.T) {
	k := newCalibrator(2)
	if a := testing.AllocsPerRun(3, func() { fftUnit(k.in, k.twiddle, k.bufs[0]) }); a != 0 {
		t.Errorf("kernel unit allocates %v objects, want 0", a)
	}
	if a, b := fftUnit(k.in, k.twiddle, k.bufs[0]), fftUnit(k.in, k.twiddle, k.bufs[1]); a != b || !(a > 0) {
		t.Errorf("kernel unit gave %v and %v, want the same positive result", a, b)
	}
	if s := k.slowdown(2); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("slowdown %v, want a finite positive ratio", s)
	}
}
