package netserver

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"softlora/internal/core"
)

func TestCheckSingleObservationPolicy(t *testing.T) {
	s := New(Config{})
	// Enrollment then detection, matching core.CheckRecord's policy.
	for i := 0; i < core.DefaultEnrollFrames; i++ {
		v := s.Check(PHYObservation{DeviceID: "n", FBHz: -22000 + float64(i)*10})
		if v != core.VerdictEnrolling {
			t.Fatalf("frame %d: verdict = %v, want enrolling", i, v)
		}
	}
	if v := s.Check(PHYObservation{DeviceID: "n", FBHz: -22050}); v != core.VerdictGenuine {
		t.Errorf("genuine frame: verdict = %v", v)
	}
	if v := s.Check(PHYObservation{DeviceID: "n", FBHz: -22620}); v != core.VerdictReplay {
		t.Errorf("replayed frame: verdict = %v", v)
	}
}

func TestCheckWithoutDeviceFailsClosed(t *testing.T) {
	// Nameless observations must not share one "" record: five of them
	// would otherwise enroll it and then pass as genuine.
	for _, mode := range []struct {
		name string
		cfg  Config
	}{{"immediate", Config{}}, {"windowed", Config{Window: WindowConfig{Hold: 1000}}}} {
		for _, frameID := range []string{"", "f"} {
			s := New(mode.cfg)
			for i := 0; i < 5; i++ {
				o := PHYObservation{GatewayID: "g1", FrameID: frameID, UplinkIndex: int64(i),
					FBHz: -22000 + float64(i)*1000, JitterHz: 40, ArrivalTime: float64(i)}
				if v := s.Check(o); v != core.VerdictReplay {
					t.Fatalf("%s, frame %q: check %d verdict = %v, want replay", mode.name, frameID, i, v)
				}
			}
			if rec, ok := s.Record(""); ok {
				t.Fatalf("%s, frame %q: nameless checks stored record %+v", mode.name, frameID, rec)
			}
			if st := s.Stats(); st.Observations != 0 || st.FramesChecked != 0 {
				t.Fatalf("%s, frame %q: nameless checks counted: %+v", mode.name, frameID, st)
			}
		}
	}
}

func TestCheckMatchesCheckRecord(t *testing.T) {
	// A zero Config applies core.CheckRecord with the core defaults, so
	// the sharded store must leave the same records and verdicts as a
	// plain map updated by CheckRecord.
	s := New(Config{})
	ref := make(map[string]*core.BiasRecord)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("dev-%d", rng.Intn(8))
		fb := -22000 + rng.NormFloat64()*80
		if rng.Intn(12) == 0 {
			fb -= 620 // occasional replay
		}
		vs := s.Check(PHYObservation{DeviceID: id, FBHz: fb})
		vr, rec := core.CheckRecord(ref[id], fb, core.DefaultToleranceHz, core.DefaultDevMultiplier, core.DefaultEWMAAlpha, core.DefaultEnrollFrames)
		if rec != nil {
			ref[id] = rec
		}
		if vs != vr {
			t.Fatalf("frame %d (%s, %f): netserver %v vs CheckRecord %v", i, id, fb, vs, vr)
		}
	}
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("dev-%d", i)
		rs, oks := s.Record(id)
		rr, okr := ref[id]
		if oks != okr || (okr && rs != *rr) {
			t.Errorf("%s: record %+v (%v) vs %+v (%v)", id, rs, oks, rr, okr)
		}
	}
}

func TestFuseWeightsByJitter(t *testing.T) {
	obs := []PHYObservation{
		{GatewayID: "far", DeviceID: "n", FrameID: "f1", FBHz: -21800, JitterHz: 300, ArrivalTime: 10.002},
		{GatewayID: "near", DeviceID: "n", FrameID: "f1", FBHz: -22000, JitterHz: 30, ArrivalTime: 10.001},
	}
	fv, err := fuseDetail(obs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Inverse-variance: the near gateway dominates 100:1.
	if math.Abs(fv.FBHz-(-21998)) > 1 {
		t.Errorf("fused FB = %f, want ≈ -21998", fv.FBHz)
	}
	// Fused jitter is tighter than the best single receiver.
	if fv.JitterHz >= 30 {
		t.Errorf("fused jitter = %f, want < 30", fv.JitterHz)
	}
	// Timestamping elects the lowest-jitter receiver.
	if fv.GatewayID != "near" || fv.ArrivalTime != 10.001 {
		t.Errorf("elected %s @ %f, want near @ 10.001", fv.GatewayID, fv.ArrivalTime)
	}
	if fv.Receivers != 2 {
		t.Errorf("receivers = %d", fv.Receivers)
	}
}

func TestFuseErrors(t *testing.T) {
	if _, err := fuseDetail(nil, nil, nil); !errors.Is(err, ErrNoObservations) {
		t.Errorf("err = %v, want ErrNoObservations", err)
	}
	mixed := []PHYObservation{{DeviceID: "a"}, {DeviceID: "b"}}
	if _, err := fuseDetail(mixed, nil, nil); !errors.Is(err, ErrMixedFrame) {
		t.Errorf("err = %v, want ErrMixedFrame", err)
	}
}

func TestFuseUnknownJitterFallsBack(t *testing.T) {
	obs := []PHYObservation{
		{DeviceID: "n", FBHz: -22000, JitterHz: 0},
		{DeviceID: "n", FBHz: -21000, JitterHz: math.NaN()},
	}
	fv, err := fuseDetail(obs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both fall back to the default weight: plain average.
	if math.Abs(fv.FBHz-(-21500)) > 1e-9 {
		t.Errorf("fused FB = %f, want -21500", fv.FBHz)
	}
}

func TestFuseRejectsNonFiniteObservations(t *testing.T) {
	s := New(Config{})
	s.Enroll("n", -22000, 10)
	rec0, _ := s.Record("n")
	// One receiver returns NaN (lost lock, garbage estimate): it must be
	// gated out, not folded into the mean.
	obs := []PHYObservation{
		{GatewayID: "bad", DeviceID: "n", FrameID: "f", FBHz: math.NaN(), JitterHz: 10},
		{GatewayID: "good", DeviceID: "n", FrameID: "f", FBHz: -22010, JitterHz: 50},
	}
	fv, err := s.CheckFrame(obs)
	if err != nil {
		t.Fatal(err)
	}
	if fv.Verdict != core.VerdictGenuine || math.Abs(fv.FBHz-(-22010)) > 1e-9 {
		t.Errorf("verdict = %v FB = %f, want genuine from the good receiver", fv.Verdict, fv.FBHz)
	}
	if fv.OutliersRejected != 1 || fv.GatewayID != "good" {
		t.Errorf("outliers = %d via %s", fv.OutliersRejected, fv.GatewayID)
	}
	// Every receiver non-finite: fail closed as replay, database untouched.
	all := []PHYObservation{
		{GatewayID: "a", DeviceID: "n", FrameID: "g", FBHz: math.NaN()},
		{GatewayID: "b", DeviceID: "n", FrameID: "g", FBHz: math.Inf(1)},
	}
	fv, err = s.CheckFrame(all)
	if err != nil {
		t.Fatal(err)
	}
	if fv.Verdict != core.VerdictReplay {
		t.Errorf("all-non-finite frame: verdict = %v, want replay (fail closed)", fv.Verdict)
	}
	rec1, _ := s.Record("n")
	// Only the earlier genuine fold may have changed the record; the
	// non-finite frame must not have.
	if rec1.Count != rec0.Count+1 {
		t.Errorf("count %d -> %d, want exactly one genuine fold", rec0.Count, rec1.Count)
	}
}

func TestCheckFrameTinyJitterStaysFinite(t *testing.T) {
	// A copy's jitter below ~1e-154 Hz used to overflow its weight 1/j²
	// to +Inf, so the fused FB came out NaN and this genuine frame was
	// judged a replay.
	s := New(Config{})
	s.Enroll("n", -22000, 10)
	obs := []PHYObservation{
		{GatewayID: "gw-0", DeviceID: "n", FrameID: "f", FBHz: -22010, JitterHz: 1e-160},
		{GatewayID: "gw-1", DeviceID: "n", FrameID: "f", FBHz: -21990, JitterHz: 40},
	}
	fv, err := s.CheckFrame(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(fv.FBHz) || math.IsInf(fv.FBHz, 0) || !(fv.JitterHz > 0) || math.IsInf(fv.JitterHz, 0) {
		t.Fatalf("fused FB %v, jitter %v: want both finite, jitter positive", fv.FBHz, fv.JitterHz)
	}
	// The tiny jitter counts as the 1-Hz floor: both copies pass the
	// gate, and the floored copy dominates the mean 1600:1.
	if fv.OutliersRejected != 0 || fv.GatewayID != "gw-0" || math.Abs(fv.FBHz-(-22010)) > 0.1 {
		t.Errorf("fused FB %v via %s, %d outliers: want ≈ -22010 via gw-0, none rejected",
			fv.FBHz, fv.GatewayID, fv.OutliersRejected)
	}
	if fv.Verdict != core.VerdictGenuine {
		t.Errorf("verdict = %v, want genuine", fv.Verdict)
	}
}

func TestCheckFrameDeduplicatesReceivers(t *testing.T) {
	s := New(Config{})
	s.Enroll("n", -22000, 10)
	rec0, _ := s.Record("n")
	// A replayed frame heard by two gateways: one verdict, one suppressed
	// duplicate, and (being a replay) zero database updates.
	obs := []PHYObservation{
		{GatewayID: "gw-0", DeviceID: "n", FrameID: "frame-7", FBHz: -22610, JitterHz: 40},
		{GatewayID: "gw-1", DeviceID: "n", FrameID: "frame-7", FBHz: -22640, JitterHz: 60},
	}
	fv, err := s.CheckFrame(obs)
	if err != nil {
		t.Fatal(err)
	}
	if fv.Verdict != core.VerdictReplay {
		t.Errorf("verdict = %v, want replay", fv.Verdict)
	}
	st := s.Stats()
	if st.FramesChecked != 1 || st.Observations != 2 || st.DuplicatesSuppressed != 1 {
		t.Errorf("stats = %+v", st)
	}
	rec1, _ := s.Record("n")
	if rec0 != rec1 {
		t.Error("replayed frame updated the database")
	}
}

func TestCheckBatchOrdersAndGroups(t *testing.T) {
	s := New(Config{})
	s.Enroll("n", -22000, 10)
	// Three frames arriving interleaved and out of order across two
	// gateways; frame f1 is heard twice.
	obs := []PHYObservation{
		{GatewayID: "gw-1", DeviceID: "n", FrameID: "f2", UplinkIndex: 2, FBHz: -21990, JitterHz: 50},
		{GatewayID: "gw-0", DeviceID: "n", FrameID: "f1", UplinkIndex: 1, FBHz: -22010, JitterHz: 50},
		{GatewayID: "gw-1", DeviceID: "n", FrameID: "f1", UplinkIndex: 1, FBHz: -22030, JitterHz: 50},
		{GatewayID: "gw-0", DeviceID: "n", FrameID: "f3", UplinkIndex: 3, FBHz: -22620, JitterHz: 50},
	}
	verdicts, err := s.CheckBatch(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 3 {
		t.Fatalf("verdicts = %d, want 3 frames", len(verdicts))
	}
	wantFrames := []string{"f1", "f2", "f3"}
	for i, fv := range verdicts {
		if fv.FrameID != wantFrames[i] {
			t.Errorf("verdict %d: frame %s, want %s (commit order)", i, fv.FrameID, wantFrames[i])
		}
	}
	if verdicts[0].Receivers != 2 {
		t.Errorf("f1 receivers = %d, want 2", verdicts[0].Receivers)
	}
	if verdicts[2].Verdict != core.VerdictReplay {
		t.Errorf("f3 verdict = %v, want replay", verdicts[2].Verdict)
	}
}

func TestCheckBatchOrderIndependentDatabase(t *testing.T) {
	// The committed database must be a pure function of the batch
	// contents: shuffling observation arrival order changes nothing.
	build := func(perm []int) []byte {
		s := New(Config{})
		s.Enroll("n", -22000, 10)
		base := []PHYObservation{
			{DeviceID: "n", FrameID: "a", UplinkIndex: 0, FBHz: -22040, JitterHz: 40},
			{DeviceID: "n", FrameID: "b", UplinkIndex: 1, FBHz: -21930, JitterHz: 40},
			{DeviceID: "n", FrameID: "c", UplinkIndex: 2, FBHz: -22110, JitterHz: 40},
			{DeviceID: "n", FrameID: "d", UplinkIndex: 3, FBHz: -21880, JitterHz: 40},
		}
		obs := make([]PHYObservation, len(base))
		for i, p := range perm {
			obs[i] = base[p]
		}
		if _, err := s.CheckBatch(obs); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := build([]int{0, 1, 2, 3})
	for _, perm := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		if got := build(perm); !bytes.Equal(got, want) {
			t.Errorf("permutation %v: database bytes differ", perm)
		}
	}
}

func TestCheckBatchEmptyFrameIDsNeverMerge(t *testing.T) {
	s := New(Config{})
	s.Enroll("n", -22000, 10)
	obs := []PHYObservation{
		{DeviceID: "n", UplinkIndex: 0, FBHz: -22010},
		{DeviceID: "n", UplinkIndex: 1, FBHz: -21990},
	}
	verdicts, err := s.CheckBatch(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 2 {
		t.Fatalf("verdicts = %d, want 2 (no merging without FrameID)", len(verdicts))
	}
}

func TestSaveRewritesLegacyJSONBytes(t *testing.T) {
	// The legacy JSON layout: two-space indent, device IDs sorted, and
	// no last_seen_s on records that were never stamped. Loading it and
	// saving again must reproduce it byte for byte.
	const legacy = `{
  "node-1": {
    "mean_hz": -22000,
    "dev_hz": 0,
    "min_hz": -22000,
    "max_hz": -22000,
    "count": 5
  },
  "node-2": {
    "mean_hz": -18000,
    "dev_hz": 12.5,
    "min_hz": -18040,
    "max_hz": -17990,
    "count": 7
  }
}
`
	s := New(Config{})
	if err := s.Load(strings.NewReader(legacy)); err != nil {
		t.Fatal(err)
	}
	rec, ok := s.Record("node-2")
	if !ok || rec.Mean != -18000 || rec.Count != 7 {
		t.Errorf("record = %+v ok=%v", rec, ok)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != legacy {
		t.Errorf("Save wrote\n%s\nwant the loaded legacy bytes\n%s", buf.String(), legacy)
	}
}

func TestLoadRejectsHostileDatabase(t *testing.T) {
	// A record with Dev: NaN makes Band NaN, and |fb − mean| > NaN is
	// always false — every frame from that device would be accepted as
	// genuine. Load must reject such databases outright and keep the
	// database it had.
	cases := map[string]string{
		"nan mean":       `{"n": {"mean_hz": "NaN", "dev_hz": 0, "min_hz": 0, "max_hz": 0, "count": 1}}`,
		"negative dev":   `{"n": {"mean_hz": -22000, "dev_hz": -5, "min_hz": -22000, "max_hz": -22000, "count": 10}}`,
		"negative count": `{"n": {"mean_hz": -22000, "dev_hz": 0, "min_hz": -22000, "max_hz": -22000, "count": -1}}`,
		"inverted range": `{"n": {"mean_hz": -22000, "dev_hz": 0, "min_hz": -21000, "max_hz": -22000, "count": 10}}`,
		"null record":    `{"n": null}`,
	}
	for name, hostile := range cases {
		s := New(Config{})
		s.Enroll("keep", -20000, 10)
		if err := s.Load(strings.NewReader(hostile)); !errors.Is(err, core.ErrBadDatabase) {
			t.Errorf("%s: err = %v, want ErrBadDatabase", name, err)
		}
		if _, ok := s.Record("keep"); !ok {
			t.Errorf("%s: failed load clobbered the database", name)
		}
	}
}

func TestShardsCoverManyDevices(t *testing.T) {
	s := New(Config{Shards: 8})
	const n = 1000
	for i := 0; i < n; i++ {
		s.Enroll(fmt.Sprintf("dev-%d", i), -22000, 5)
	}
	if s.Devices() != n {
		t.Fatalf("devices = %d, want %d", s.Devices(), n)
	}
	// Every shard should hold a reasonable share (FNV spreads uniformly).
	for i := range s.shards {
		s.shards[i].mu.Lock()
		got := len(s.shards[i].devices)
		s.shards[i].mu.Unlock()
		if got < n/8/4 {
			t.Errorf("shard %d holds %d devices — hash badly skewed", i, got)
		}
	}
}

// TestConcurrentCheckSaveLoad exists primarily for `go test -race
// ./internal/netserver`: gateways hammer Check while Save and Load run.
func TestConcurrentCheckSaveLoad(t *testing.T) {
	s := New(Config{})
	ids := make([]string, 32)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev-%d", i)
		s.Enroll(ids[i], -22000, 10)
	}
	var seed bytes.Buffer
	if err := s.Save(&seed); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		seedN := int64(w)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seedN))
			for i := 0; i < 400; i++ {
				id := ids[rng.Intn(len(ids))]
				s.Check(PHYObservation{GatewayID: "gw", DeviceID: id, FBHz: -22000 + rng.NormFloat64()*50})
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := s.Save(&buf); err != nil {
					t.Error(err)
					return
				}
				if err := s.Load(bytes.NewReader(seed.Bytes())); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Detection still works for every device after the churn.
	if err := s.Load(bytes.NewReader(seed.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if v := s.Check(PHYObservation{DeviceID: id, FBHz: -22620}); v != core.VerdictReplay {
			t.Errorf("%s: %v", id, v)
		}
	}
}
