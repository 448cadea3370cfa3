package netserver

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"softlora/internal/core"
	"softlora/internal/faultinject"
)

// windowed builds a server with the streaming window enabled and one
// enrolled device "n" at -22000 Hz (acceptance band ±360 Hz).
func windowed(t *testing.T, cfg WindowConfig) *NetworkServer {
	t.Helper()
	s := New(Config{Window: cfg})
	s.Enroll("n", -22000, 10)
	return s
}

func TestWindowMergesAcrossCalls(t *testing.T) {
	s := windowed(t, WindowConfig{Hold: 5})
	if v := s.Check(PHYObservation{GatewayID: "g1", DeviceID: "n", FrameID: "f1",
		FBHz: -22100, JitterHz: 40, ArrivalTime: 0}); v != core.VerdictPending {
		t.Fatalf("first copy verdict = %v, want pending", v)
	}
	// Second copy in a *separate* call merges instead of re-verdicting.
	if v := s.Check(PHYObservation{GatewayID: "g2", DeviceID: "n", FrameID: "f1",
		FBHz: -22060, JitterHz: 40, ArrivalTime: 1}); v != core.VerdictPending {
		t.Fatalf("second copy verdict = %v, want pending", v)
	}
	if n := s.PendingFrames(); n != 1 {
		t.Fatalf("pending frames = %d, want 1", n)
	}
	evs := s.AdvanceWindow(10)
	if len(evs) != 1 {
		t.Fatalf("events after hold expiry = %d, want 1", len(evs))
	}
	fv := evs[0]
	if fv.Receivers != 2 || fv.Verdict != core.VerdictGenuine || fv.FrameID != "f1" {
		t.Fatalf("bad committed verdict: %+v", fv)
	}
	st := s.Stats()
	if st.FramesChecked != 1 || st.WindowMerged != 1 || st.Observations != 2 {
		t.Fatalf("stats = %+v, want 1 frame / 1 merged / 2 obs", st)
	}
	if rec, _ := s.Record("n"); rec.Count != 11 {
		t.Fatalf("record folded %d times, want 11 (exactly one fold)", rec.Count)
	}
}

func TestWindowCommitsWhenFull(t *testing.T) {
	s := windowed(t, WindowConfig{Hold: 1000, MaxReceivers: 2})
	s.Check(PHYObservation{GatewayID: "g1", DeviceID: "n", FrameID: "f1",
		FBHz: -22100, JitterHz: 40, ArrivalTime: 0})
	// The filling copy commits the frame inside this very call.
	if v := s.Check(PHYObservation{GatewayID: "g2", DeviceID: "n", FrameID: "f1",
		FBHz: -22060, JitterHz: 40, ArrivalTime: 0.01}); v != core.VerdictGenuine {
		t.Fatalf("filling copy verdict = %v, want genuine", v)
	}
	if n := s.PendingFrames(); n != 0 {
		t.Fatalf("pending frames = %d, want 0 after full commit", n)
	}
}

func TestWindowSameGatewayDuplicateDoesNotFill(t *testing.T) {
	s := windowed(t, WindowConfig{Hold: 1000, MaxReceivers: 2})
	o := PHYObservation{GatewayID: "g1", DeviceID: "n", FrameID: "f1",
		FBHz: -22100, JitterHz: 40, ArrivalTime: 0}
	s.Check(o)
	// An exact duplicate from the same gateway is one receiver, not two.
	if v := s.Check(o); v != core.VerdictPending {
		t.Fatalf("duplicate copy verdict = %v, want pending", v)
	}
	evs := s.DrainWindow()
	if len(evs) != 1 || evs[0].Receivers != 1 {
		t.Fatalf("drained %d events, receivers %d; want 1 event from 1 receiver",
			len(evs), evs[0].Receivers)
	}
}

func TestWindowLateCopyRevisesVerdict(t *testing.T) {
	s := windowed(t, WindowConfig{Hold: 1, LateHorizon: 1000})
	s.Check(PHYObservation{GatewayID: "g1", DeviceID: "n", FrameID: "f1",
		FBHz: -22300, JitterHz: 120, ArrivalTime: 0})
	evs := s.AdvanceWindow(5)
	if len(evs) != 1 || evs[0].Verdict != core.VerdictGenuine {
		t.Fatalf("commit events = %+v, want one genuine", evs)
	}
	folds, _ := s.Record("n")
	// A much tighter late copy far from the committed estimate: the
	// re-fused value anchors on it, leaves the band, and the verdict
	// flips — as a notification, not a second fold.
	if v := s.Check(PHYObservation{GatewayID: "g2", DeviceID: "n", FrameID: "f1",
		FBHz: -21000, JitterHz: 1, ArrivalTime: 5.5}); v != core.VerdictPending {
		t.Fatalf("late copy verdict = %v, want pending (event is queued)", v)
	}
	evs = s.PollWindow()
	if len(evs) != 1 {
		t.Fatalf("revision events = %d, want 1", len(evs))
	}
	rv := evs[0]
	if !rv.Revised || rv.PrevVerdict != core.VerdictGenuine || rv.Verdict != core.VerdictReplay {
		t.Fatalf("bad revision: %+v", rv)
	}
	if rec, _ := s.Record("n"); rec.Count != folds.Count {
		t.Fatalf("late copy folded the database: %d -> %d", folds.Count, rec.Count)
	}
	st := s.Stats()
	if st.LateObservations != 1 || st.VerdictsRevised != 1 || st.FramesChecked != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWindowLateDuplicateIsSilent(t *testing.T) {
	s := windowed(t, WindowConfig{Hold: 1, LateHorizon: 1000})
	o := PHYObservation{GatewayID: "g1", DeviceID: "n", FrameID: "f1",
		FBHz: -22100, JitterHz: 40, ArrivalTime: 0}
	s.Check(o)
	s.AdvanceWindow(5)
	// The same copy redelivered after commit: reconciled, no flip, no event.
	o.ArrivalTime = 6
	if v := s.Check(o); v != core.VerdictPending {
		t.Fatalf("late duplicate verdict = %v, want pending", v)
	}
	if evs := s.PollWindow(); len(evs) != 0 {
		t.Fatalf("late duplicate emitted %d events, want 0", len(evs))
	}
	st := s.Stats()
	if st.LateObservations != 1 || st.VerdictsRevised != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWindowShedsOldestAtCap(t *testing.T) {
	s := New(Config{Window: WindowConfig{Hold: 1e9, MaxPending: 8}})
	var obs []PHYObservation
	for i := 0; i < 100; i++ {
		obs = append(obs, PHYObservation{
			GatewayID: "g1", DeviceID: "n", FrameID: frameID(i),
			UplinkIndex: int64(i), FBHz: -22000, JitterHz: 40,
			ArrivalTime: float64(i),
		})
	}
	evs, err := s.CheckBatch(obs)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.PendingFrames(); n > 8 {
		t.Fatalf("pending frames = %d, exceeds MaxPending 8", n)
	}
	if st := s.Stats(); st.WindowShed != 92 {
		t.Fatalf("WindowShed = %d, want 92", st.WindowShed)
	}
	evs = append(evs, s.DrainWindow()...)
	if len(evs) != 100 {
		t.Fatalf("total committed verdicts = %d, want 100 (shed frames still judged)", len(evs))
	}
}

func TestWindowEmptyFrameIDJudgedImmediately(t *testing.T) {
	s := windowed(t, WindowConfig{Hold: 1000})
	// No identity to dedup on: not held.
	if v := s.Check(PHYObservation{GatewayID: "g1", DeviceID: "n",
		FBHz: -22100, JitterHz: 40, ArrivalTime: 0}); v != core.VerdictGenuine {
		t.Fatalf("frameless observation verdict = %v, want genuine", v)
	}
	if n := s.PendingFrames(); n != 0 {
		t.Fatalf("pending frames = %d, want 0", n)
	}
}

func TestWindowDrainCommitsInUplinkOrder(t *testing.T) {
	// Canonical commit order: UplinkIndex, then DeviceID, then FrameID,
	// whatever the delivery order.
	s := windowed(t, WindowConfig{Hold: 1000})
	for _, f := range []struct {
		dev, frame string
		index      int64
	}{{"n", "fd", 3}, {"n", "fbb", 1}, {"n", "fa", 0}, {"n", "fc", 2}, {"m", "fe", 2}, {"n", "fb", 1}} {
		s.Check(PHYObservation{GatewayID: "g1", DeviceID: f.dev, FrameID: f.frame,
			UplinkIndex: f.index, FBHz: -22000, JitterHz: 40, ArrivalTime: float64(f.index)})
	}
	evs := s.DrainWindow()
	want := []string{"n/fa", "n/fb", "n/fbb", "m/fe", "n/fc", "n/fd"}
	if len(evs) != len(want) {
		t.Fatalf("drained %d, want %d", len(evs), len(want))
	}
	for i, fv := range evs {
		if got := fv.DeviceID + "/" + fv.FrameID; got != want[i] {
			t.Fatalf("drain order: event %d is %s, want %s", i, got, want[i])
		}
	}
	w := s.win
	if w.openOrder.len != 0 || w.openOrder.head != nil || len(w.byDevice) != 0 {
		t.Fatalf("drained window still holds %d pending frames, %d device chains", w.openOrder.len, len(w.byDevice))
	}
	for key, e := range w.frames {
		if !e.done {
			t.Fatalf("drained window's frame table holds pending frame %v", key)
		}
	}
}

func TestWindowedBatchPartialOnError(t *testing.T) {
	s := windowed(t, WindowConfig{Hold: 1000, MaxReceivers: 1})
	obs := []PHYObservation{
		{GatewayID: "g1", DeviceID: "n", FrameID: "f1", UplinkIndex: 0,
			FBHz: -22000, JitterHz: 40, ArrivalTime: 0},
		{GatewayID: "g1", FrameID: "f2", UplinkIndex: 1, FBHz: -22000,
			ArrivalTime: 1}, // no device ID
		{GatewayID: "g1", DeviceID: "n", FrameID: "f3", UplinkIndex: 2,
			FBHz: -22000, JitterHz: 40, ArrivalTime: 2},
	}
	evs, err := s.CheckBatch(obs)
	if err == nil || !strings.Contains(err.Error(), "observation 1 of batch") {
		t.Fatalf("err = %v, want observation-1 error", err)
	}
	// The frame ingested before the bad observation still committed and
	// its verdict is visible alongside the error.
	if len(evs) != 1 || evs[0].FrameID != "f1" {
		t.Fatalf("partial events = %+v, want committed f1", evs)
	}
}

func TestCheckBatchPartialVerdictsOnError(t *testing.T) {
	// Regression (non-windowed path): a mid-batch CheckFrame error used to
	// return nil verdicts even though earlier frames had already folded
	// into the database.
	s := New(Config{})
	s.Enroll("n", -22000, 10)
	obs := []PHYObservation{
		{GatewayID: "g1", DeviceID: "n", FrameID: "f1", UplinkIndex: 0,
			FBHz: -22040, JitterHz: 40},
		{GatewayID: "g1", FrameID: "", UplinkIndex: 1, FBHz: -22000}, // no device
	}
	verdicts, err := s.CheckBatch(obs)
	if err == nil {
		t.Fatal("want a frame error")
	}
	if len(verdicts) != 1 || verdicts[0].FrameID != "f1" {
		t.Fatalf("partial verdicts = %+v, want the committed f1", verdicts)
	}
	if rec, _ := s.Record("n"); rec.Count != 11 {
		t.Fatalf("f1's fold missing: count = %d", rec.Count)
	}
}

func TestFrameKeysDoNotCollide(t *testing.T) {
	// Regression: the dedup key was DeviceID + "\x00" + FrameID, so
	// device "a\x00b" with frame "c" and device "a" with frame "b\x00c"
	// shared a key. The window dropped both frames, and the immediate
	// CheckBatch failed the whole batch with ErrMixedFrame.
	obs := []PHYObservation{
		{GatewayID: "g1", DeviceID: "a\x00b", FrameID: "c", UplinkIndex: 0, FBHz: -22000, JitterHz: 40},
		{GatewayID: "g1", DeviceID: "a", FrameID: "b\x00c", UplinkIndex: 1, FBHz: -21000, JitterHz: 40},
	}
	for _, cfg := range []WindowConfig{{}, {Hold: 1000}} {
		s := New(Config{Window: cfg})
		evs, err := s.CheckBatch(obs)
		if err != nil {
			t.Fatalf("window hold %v: %v", cfg.Hold, err)
		}
		evs = append(evs, s.DrainWindow()...)
		if len(evs) != 2 || evs[0].DeviceID != "a\x00b" || evs[1].DeviceID != "a" {
			t.Fatalf("window hold %v: verdicts %+v, want one per device", cfg.Hold, evs)
		}
		if st := s.Stats(); st.FramesChecked != 2 || st.WindowEventsDropped != 0 {
			t.Fatalf("window hold %v: stats = %+v", cfg.Hold, st)
		}
	}
}

func TestWindowEventQueueDropsOldest(t *testing.T) {
	// A Check-only caller that never polls: each new frame's arrival
	// expires the previous one, whose verdict queues. Past the cap
	// (4×MaxPending, at least 1,024) the oldest verdicts drop.
	s := New(Config{Window: WindowConfig{Hold: 0.5, MaxPending: 8}})
	const frames = 5000
	for i := 0; i < frames; i++ {
		if v := s.Check(PHYObservation{GatewayID: "g1", DeviceID: "n", FrameID: fmt.Sprintf("f%05d", i),
			UplinkIndex: int64(i), FBHz: -22000, JitterHz: 40, ArrivalTime: float64(i)}); v != core.VerdictPending {
			t.Fatalf("frame %d: verdict %v, want pending", i, v)
		}
	}
	// The queue's storage stays within a small multiple of its cap.
	if c := cap(s.win.events); c > 3*defaultEventQueueFloor {
		t.Fatalf("event queue storage grew to %d verdicts, cap %d", c, defaultEventQueueFloor)
	}
	// The last frame is still held; every earlier one committed.
	evs := s.PollWindow()
	const queued = defaultEventQueueFloor
	if len(evs) != queued {
		t.Fatalf("polled %d verdicts, want the newest %d", len(evs), queued)
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("f%05d", frames-1-queued+i); ev.FrameID != want {
			t.Fatalf("verdict %d is frame %s, want %s", i, ev.FrameID, want)
		}
	}
	if st := s.Stats(); st.WindowEventsDropped != frames-1-queued {
		t.Fatalf("WindowEventsDropped = %d, want %d", st.WindowEventsDropped, frames-1-queued)
	}
	if evs := s.PollWindow(); len(evs) != 0 {
		t.Fatalf("second poll returned %d verdicts, want 0", len(evs))
	}
}

func TestWindowReusedFrameNotCommittedEarly(t *testing.T) {
	// Regression for frame reuse: frame a fills (ready), is shed by c's
	// arrival and forgotten by b's commit (MaxCommitted 1) within one
	// CheckBatch call, while the ready queue still holds it. Reusing it for
	// d, the next new frame, left d in the ready queue, and the next commit
	// pass committed d with one receiver and its hold not expired.
	s := New(Config{Window: WindowConfig{Hold: 1e9, MaxReceivers: 2, MaxPending: 2, MaxCommitted: 1}})
	bias := map[string]float64{"n": -22000, "m": -21000}
	s.Enroll("n", bias["n"], 10)
	s.Enroll("m", bias["m"], 10)
	obs := func(dev, gw, fr string, i int) PHYObservation {
		return PHYObservation{GatewayID: gw, DeviceID: dev, FrameID: fr, UplinkIndex: int64(i),
			FBHz: bias[dev], JitterHz: 40, ArrivalTime: float64(i)}
	}
	evs, err := s.CheckBatch([]PHYObservation{
		obs("n", "g1", "a", 0), obs("n", "g2", "a", 1),
		obs("m", "g1", "b", 2), obs("m", "g1", "c", 3), obs("m", "g1", "d", 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	more, err := s.CheckBatch([]PHYObservation{obs("m", "g2", "c", 5)})
	if err != nil {
		t.Fatal(err)
	}
	evs = append(evs, more...)
	var got []string
	for _, fv := range evs {
		got = append(got, fmt.Sprintf("%s/%d", fv.FrameID, fv.Receivers))
	}
	if want := "a/2 b/1 c/2"; strings.Join(got, " ") != want {
		t.Fatalf("committed %v, want %s", got, want)
	}
	if n := s.PendingFrames(); n != 1 {
		t.Fatalf("pending frames = %d, want 1 (d)", n)
	}
}

func TestWindowedStreamAllocatesOnlyVerdictSlices(t *testing.T) {
	// A warm windowed stream shaped like the benchmark's server-stream
	// workload: an enrolled fleet, three receivers per frame, frames 1e-4 s
	// apart, a 0.05 s hold, and duplicated, reordered and delayed copies,
	// delivered in 64-observation CheckBatch calls. Once the window's
	// committed memory has filled to its late horizon, new frames reuse
	// forgotten ones, so a call allocates only the verdict slice it returns.
	// That slice starts at the size of the last call's; a call that commits
	// more frames than the last regrows it (about 1.5 objects a call on
	// average here), which AllocsPerRun's truncated mean absorbs.
	if raceEnabled {
		t.Skip("the allocation budget is pinned in normal builds; race builds check the window for data races")
	}
	const devices, frames, receivers, batch = 2000, 16000, 3, 64
	rng := rand.New(rand.NewSource(7))
	s := New(Config{Window: WindowConfig{Hold: 0.05, MaxReceivers: receivers}})
	ids := make([]string, devices)
	bias := make([]float64, devices)
	for d := range ids {
		ids[d] = fmt.Sprintf("fleet-%07d", d)
		bias[d] = -25200 + rng.Float64()*7800
		s.Enroll(ids[d], bias[d], 10)
	}
	var logical []PHYObservation
	for k := 0; k < frames; k++ {
		d := rng.Intn(devices)
		for g := 0; g < receivers; g++ {
			jitter := 30 + rng.Float64()*20
			logical = append(logical, PHYObservation{
				GatewayID: fmt.Sprintf("gw-%02d", g), DeviceID: ids[d], FrameID: fmt.Sprintf("fr-%d", k),
				UplinkIndex: int64(k), FBHz: bias[d] + rng.NormFloat64()*jitter, JitterHz: jitter,
				ArrivalTime: 1000 + float64(k)*1e-4,
			})
		}
	}
	calls := faultinject.SplitBatches(chaosInjector(faultinject.TrafficPlan{
		Seed: 507, DupProb: 0.2, DupBurst: 2, ReorderWindow: 2 * receivers, DelayProb: 0.1, MaxDelay: 0.025,
	}).Schedule(logical), batch)
	next := 0
	checkBatch := func() {
		if _, err := s.CheckBatch(calls[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	// Warm up well past the late horizon (2×Hold, 1,000 frames, about 60
	// calls).
	for next < 300 {
		checkBatch()
	}
	const runs = 600 // AllocsPerRun makes one more, unmeasured call first
	if len(calls)-next < runs+1 {
		t.Fatalf("stream too short: %d calls left, want %d", len(calls)-next, runs+1)
	}
	if a := testing.AllocsPerRun(runs, checkBatch); a > 1 {
		t.Fatalf("a warm CheckBatch call allocates %v objects, want at most 1 (the verdict slice)", a)
	}
}

func frameID(i int) string {
	return "f" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}
