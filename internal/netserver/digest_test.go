//go:build amd64 && !amd64.v3

package netserver

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"softlora/internal/faultinject"
)

// TestWindowedStreamDigest pins the windowed server's outputs on a fixed
// stream to a committed SHA-256 digest, as TestGatewayOutputDigests does for
// the gateway, so a change meant to keep them bit-identical can show it with
// go test. The stream is shaped like the benchmark's server-stream workload
// at small scale: an enrolled fleet, three receivers per frame, 5% of frames
// replayed, a few frames without a FrameID, duplicated, reordered and
// delayed copies, delivered in 64-observation CheckBatch calls and then
// drained. The window is small enough that frames are shed at MaxPending,
// copies arrive after their frame committed, and committed frames are
// forgotten and re-opened, so every path of the window feeds the digest:
// every FrameVerdict field (floats by their bits), the Stats counters and
// the saved database. A change that alters outputs on purpose updates the
// digest this test prints and says so in CHANGES.md.
//
// The build constraint keeps it to amd64 below v3: at GOAMD64=v3 the
// compiler fuses the fusion's multiply-adds into FMA instructions, which
// round once instead of twice and so change output bits.
func TestWindowedStreamDigest(t *testing.T) {
	const want = "c213a446fd4755c80ab4dcf2a14374742ec5d203c546dcf0a558db2c9ac5ced3"
	const (
		devices, frames, receivers, batch = 300, 2000, 3, 64
		hold, frameSpacing                = 0.01, 1e-4
		replayHz                          = 609 // 0.7 ppm at 869.75 MHz
	)
	rng := rand.New(rand.NewSource(7))
	s := New(Config{Window: WindowConfig{
		Hold: hold, MaxReceivers: receivers, MaxPending: 16, LateHorizon: 0.004, MaxCommitted: 2,
	}})
	ids := make([]string, devices)
	bias := make([]float64, devices)
	for d := range ids {
		ids[d] = fmt.Sprintf("fleet-%07d", d)
		bias[d] = -25200 + rng.Float64()*7800
		s.Enroll(ids[d], bias[d], 10)
	}
	logical := make([]PHYObservation, 0, frames*receivers)
	for k := 0; k < frames; k++ {
		d := rng.Intn(devices)
		id := "fr-" + strconv.Itoa(k)
		if k%97 == 0 {
			id = "" // no identity: judged at once, never merged
		}
		shift := 0.0
		if rng.Float64() < 0.05 {
			shift = replayHz
		}
		for g := 0; g < receivers; g++ {
			jitter := 30 + rng.Float64()*20
			logical = append(logical, PHYObservation{
				GatewayID: fmt.Sprintf("gw-%02d", g), DeviceID: ids[d], FrameID: id,
				UplinkIndex: int64(k), FBHz: bias[d] + shift + rng.NormFloat64()*jitter, JitterHz: jitter,
				ArrivalTime: 1000 + float64(k)*frameSpacing,
			})
		}
	}
	schedule := chaosInjector(faultinject.TrafficPlan{
		Seed: 507, DupProb: 0.2, DupBurst: 2, ReorderWindow: 2 * receivers, DelayProb: 0.1, MaxDelay: 2.5 * hold,
	}).Schedule(logical)

	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(v string) {
		word(uint64(len(v)))
		h.Write([]byte(v))
	}
	judged := map[frameKey]int{} // non-revised verdicts per identified frame
	hashVerdicts := func(evs []FrameVerdict) {
		for _, fv := range evs {
			str(fv.DeviceID)
			str(fv.FrameID)
			word(uint64(fv.Verdict))
			word(math.Float64bits(fv.FBHz))
			word(math.Float64bits(fv.JitterHz))
			word(math.Float64bits(fv.ArrivalTime))
			str(fv.GatewayID)
			word(uint64(fv.Receivers))
			word(uint64(fv.OutliersRejected))
			word(uint64(fv.QuarantinedExcluded))
			if fv.Revised {
				word(1)
			} else {
				word(0)
				if fv.FrameID != "" {
					judged[frameKey{fv.DeviceID, fv.FrameID}]++
				}
			}
			word(uint64(fv.PrevVerdict))
		}
	}
	for _, call := range faultinject.SplitBatches(schedule, batch) {
		evs, err := s.CheckBatch(call)
		if err != nil {
			t.Fatal(err)
		}
		hashVerdicts(evs)
	}
	hashVerdicts(s.DrainWindow())
	st := s.Stats()
	for _, v := range []int64{st.FramesChecked, st.Observations, st.DuplicatesSuppressed, st.Evicted,
		st.WindowMerged, st.LateObservations, st.VerdictsRevised, st.WindowShed,
		st.WindowEventsDropped, st.GatewaysQuarantined} {
		word(uint64(v))
	}
	h.Write(saveBytes(t, s))

	// The stream must reach every path the digest is meant to pin.
	reopened := 0
	for _, n := range judged {
		reopened += n - 1
	}
	if st.WindowShed == 0 || st.LateObservations == 0 || reopened == 0 {
		t.Fatalf("stream misses a window path: %d shed, %d late, %d re-opened", st.WindowShed, st.LateObservations, reopened)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("windowed stream output digest %s, want %s (stats %+v)", got, want, st)
	}
}
