package netserver

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"softlora/internal/core"
)

// Decoding tables for FuzzNetworkServerStream: small ID sets, with "" and
// IDs holding NUL bytes ("a\x00b"/"c" and "a"/"b\x00c" are distinct
// frames), and value tables holding NaN and ±Inf.
var (
	streamDevices  = []string{"", "a", "a\x00b", "dev-1"}
	streamFrames   = []string{"", "c", "b\x00c", "f1", "f2"}
	streamGateways = []string{"gw-0", "gw-1", "gw-2", "gw-3"}
	streamIndexes  = []int64{0, 1, 2, 3, -1, 7, math.MaxInt64, math.MinInt64}
	streamSpecial  = []float64{0, 1e5, -1e5, math.NaN(), math.Inf(1), math.Inf(-1)}
	streamJitters  = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5, 1e-200, 1e6, 10,
		20, 30, 40, 50, 60, 80, 120, 35.5}
	streamArrivals = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -3, 0.25, 0.5, 1,
		1.5, 2, 3, 5, 8, 13, 100, 1e12}
	streamHolds = []float64{1e-9, 0.25, 1, 4, 1e18}
)

const (
	// streamMaxObs bounds a decoded stream, far below the event queue's
	// 1,024-verdict floor, so no verdict is ever dropped.
	streamMaxObs = 256
	// streamBeyond is a hold or late horizon beyond every finite arrival
	// time the tables hold.
	streamBeyond = 1e18
	// streamRecord is the encoded size of one observation.
	streamRecord = 7
)

// streamCall is one decoded server call.
type streamCall struct {
	obs    []PHYObservation
	single bool // delivered through Check, not CheckBatch
}

// fuzzStream is a decoded FuzzNetworkServerStream input: the window
// settings the input chooses and the calls that deliver the stream.
type fuzzStream struct {
	hold                     float64
	maxReceivers, maxPending int
	calls                    []streamCall
	n                        int // observations
}

// decodeStream reads three setting bytes (hold, MaxReceivers 1–5,
// MaxPending 1–8), then one 7-byte record per observation: a control byte
// (low two bits 3: the observation is a Check call of its own; 1: it ends
// the current CheckBatch call), then the device, frame, gateway and uplink
// index, FB, jitter and arrival selectors.
func decodeStream(data []byte) fuzzStream {
	var st fuzzStream
	if len(data) < 3 {
		data = append(data, make([]byte, 3-len(data))...)
	}
	st.hold = streamHolds[int(data[0])%len(streamHolds)]
	st.maxReceivers = 1 + int(data[1])%5
	st.maxPending = 1 + int(data[2])%8
	var batch []PHYObservation
	flush := func() {
		if len(batch) > 0 {
			st.calls = append(st.calls, streamCall{obs: batch})
			batch = nil
		}
	}
	for rec := data[3:]; len(rec) >= streamRecord && st.n < streamMaxObs; rec = rec[streamRecord:] {
		fb := streamSpecial[int(rec[4])%len(streamSpecial)]
		if rec[4] < 250 {
			fb = -23200 + 10*float64(rec[4])
		}
		o := PHYObservation{
			DeviceID:    streamDevices[int(rec[1])%len(streamDevices)],
			FrameID:     streamFrames[int(rec[2])%len(streamFrames)],
			GatewayID:   streamGateways[rec[3]&3],
			UplinkIndex: streamIndexes[int(rec[3]>>2)%len(streamIndexes)],
			FBHz:        fb,
			JitterHz:    streamJitters[rec[5]&15],
			ArrivalTime: streamArrivals[rec[6]&15],
		}
		st.n++
		switch rec[0] & 3 {
		case 3:
			flush()
			st.calls = append(st.calls, streamCall{obs: []PHYObservation{o}, single: true})
		case 1:
			batch = append(batch, o)
			flush()
		default:
			batch = append(batch, o)
		}
	}
	flush()
	return st
}

// enrollStream gives two of the stream's devices an enrolled record, so
// streams see genuine and replay verdicts as well as enrollment.
func enrollStream(s *NetworkServer) {
	s.Enroll("a", -22000, 10)
	s.Enroll("a\x00b", -21000, 10)
}

// acceptedPrefix returns how many of a CheckBatch call's observations a
// windowed server ingests: all of them up to the first without a device ID.
func acceptedPrefix(obs []PHYObservation) int {
	for i := range obs {
		if obs[i].DeviceID == "" {
			return i
		}
	}
	return len(obs)
}

// FuzzNetworkServerStream drives a decoded observation stream, call
// boundaries included, through three servers and checks the streaming
// window's contract on each:
//
//   - a window whose Hold, MaxReceivers and MaxPending come from the input
//     and whose LateHorizon and MaxCommitted reach beyond the stream: the
//     only error is ErrNoDevice, for a call holding an observation without
//     a device ID, and a single Check of such an observation is judged
//     replay and counted nowhere; PendingFrames stays within MaxPending
//     after every call and is 0 after DrainWindow; every verdict names a
//     delivered frame; every accepted frame with a FrameID gets exactly one
//     non-revised verdict; and every accepted observation either gets its
//     own verdict or is counted as a duplicate;
//   - an immediate-mode server: the same error and Check rules and
//     verdict names;
//   - a window whose Hold, MaxReceivers and MaxPending reach beyond the
//     stream, so every frame commits at DrainWindow: its database equals a
//     reference built with CheckFrame from the accepted observations —
//     first each one without a FrameID, in arrival order, then each
//     frame's best copy per gateway (betterCopy), in gateway order, frames
//     in (UplinkIndex, DeviceID, FrameID) order. Every reference frame
//     with at least one finite-FB copy gets a finite fused FB, whatever
//     the copies' jitters.
//
// Every server's Save bytes must survive Load, which validates every
// record, into a fresh server and a second Save. The seed corpus in
// testdata/fuzz/FuzzNetworkServerStream holds a three-receiver stream with
// duplicates and delays, copies that arrive after their frame committed,
// single Check calls, a one-frame pending cap, non-finite values, and empty
// and NUL-holding IDs with extreme uplink indexes.
func FuzzNetworkServerStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st := decodeStream(data)
		delivered := map[frameKey]bool{}
		for _, c := range st.calls {
			for _, o := range c.obs {
				delivered[frameKey{o.DeviceID, o.FrameID}] = true
			}
		}
		named := func(server string, evs []FrameVerdict) {
			t.Helper()
			for _, fv := range evs {
				if !delivered[frameKey{fv.DeviceID, fv.FrameID}] {
					t.Fatalf("%s: verdict for undelivered frame (%q, %q)", server, fv.DeviceID, fv.FrameID)
				}
			}
		}
		callErr := func(server string, obs []PHYObservation, err error) {
			t.Helper()
			if bad := acceptedPrefix(obs) < len(obs); bad != (err != nil) || err != nil && !errors.Is(err, ErrNoDevice) {
				t.Fatalf("%s: call with an observation without device ID %v returned %v", server, bad, err)
			}
		}

		// The input's window, remembering every committed frame.
		s := New(Config{Window: WindowConfig{Hold: st.hold, MaxReceivers: st.maxReceivers,
			MaxPending: st.maxPending, LateHorizon: streamBeyond, MaxCommitted: st.n + 1}})
		enrollStream(s)
		accepted := map[frameKey]bool{}
		judged := map[frameKey]int{}
		var observations int64
		count := func(evs []FrameVerdict) {
			named("window", evs)
			for _, fv := range evs {
				if !fv.Revised && fv.FrameID != "" {
					judged[frameKey{fv.DeviceID, fv.FrameID}]++
				}
			}
		}
		for _, c := range st.calls {
			if c.single {
				o := c.obs[0]
				key := frameKey{o.DeviceID, o.FrameID}
				v := s.Check(o)
				switch {
				case o.DeviceID == "":
					if v != core.VerdictReplay {
						t.Fatalf("window: Check without device ID returned %v, want replay", v)
					}
				case o.FrameID == "":
					observations++ // judged at once, outside the window
				default:
					observations++
					accepted[key] = true
					if v != core.VerdictPending {
						judged[key]++
					}
				}
			} else {
				evs, err := s.CheckBatch(c.obs)
				callErr("window", c.obs, err)
				for _, o := range c.obs[:acceptedPrefix(c.obs)] {
					observations++
					if o.FrameID != "" {
						accepted[frameKey{o.DeviceID, o.FrameID}] = true
					}
				}
				count(evs)
			}
			if n := s.PendingFrames(); n > st.maxPending {
				t.Fatalf("window: %d frames pending, MaxPending %d", n, st.maxPending)
			}
		}
		count(s.DrainWindow())
		if n := s.PendingFrames(); n != 0 {
			t.Fatalf("window: %d frames pending after DrainWindow", n)
		}
		for key := range accepted {
			if judged[key] != 1 {
				t.Fatalf("window: accepted frame (%q, %q) got %d non-revised verdicts, want 1",
					key.DeviceID, key.FrameID, judged[key])
			}
		}
		if len(judged) != len(accepted) {
			t.Fatalf("window: %d frames judged, %d accepted", len(judged), len(accepted))
		}
		if stats := s.Stats(); stats.Observations != observations ||
			stats.FramesChecked+stats.DuplicatesSuppressed != observations {
			t.Fatalf("window: stats %+v for %d accepted observations", stats, observations)
		}
		roundTrip(t, "window", s)

		// Immediate mode.
		im := New(Config{})
		enrollStream(im)
		for _, c := range st.calls {
			if c.single {
				if v := im.Check(c.obs[0]); c.obs[0].DeviceID == "" && v != core.VerdictReplay {
					t.Fatalf("immediate: Check without device ID returned %v, want replay", v)
				}
				continue
			}
			evs, err := im.CheckBatch(c.obs)
			callErr("immediate", c.obs, err)
			named("immediate", evs)
		}
		roundTrip(t, "immediate", im)

		// A window that holds every frame until DrainWindow, against the
		// reference. It takes every call as a CheckBatch, the path that
		// judges frames without a FrameID through CheckFrame.
		u := New(Config{Window: WindowConfig{Hold: streamBeyond, MaxReceivers: len(streamGateways) + 1,
			MaxPending: st.n + 1}})
		enrollStream(u)
		ref := New(Config{})
		enrollStream(ref)
		refCheck := func(copies []PHYObservation) {
			t.Helper()
			fv, err := ref.CheckFrame(copies)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range copies {
				if !math.IsNaN(o.FBHz) && !math.IsInf(o.FBHz, 0) {
					if math.IsNaN(fv.FBHz) || math.IsInf(fv.FBHz, 0) {
						t.Fatalf("reference: frame (%q, %q) with finite-FB copies %+v fused to FB %v",
							fv.DeviceID, fv.FrameID, copies, fv.FBHz)
					}
					return
				}
			}
		}
		type refFrame struct {
			index int64
			key   frameKey
			best  map[string]*PHYObservation
		}
		frames := map[frameKey]*refFrame{}
		for _, c := range st.calls {
			evs, err := u.CheckBatch(c.obs)
			callErr("unbounded window", c.obs, err)
			named("unbounded window", evs)
			for _, fv := range evs {
				if fv.FrameID != "" {
					t.Fatalf("unbounded window: frame (%q, %q) committed before DrainWindow", fv.DeviceID, fv.FrameID)
				}
			}
			for i := range c.obs[:acceptedPrefix(c.obs)] {
				o := &c.obs[i]
				if o.FrameID == "" {
					refCheck([]PHYObservation{*o})
					continue
				}
				key := frameKey{o.DeviceID, o.FrameID}
				fr := frames[key]
				if fr == nil {
					fr = &refFrame{index: o.UplinkIndex, key: key, best: map[string]*PHYObservation{}}
					frames[key] = fr
				}
				fr.index = min(fr.index, o.UplinkIndex)
				if have := fr.best[o.GatewayID]; have == nil || betterCopy(o, have) {
					fr.best[o.GatewayID] = o
				}
			}
		}
		named("unbounded window", u.DrainWindow())
		order := make([]*refFrame, 0, len(frames))
		for _, fr := range frames {
			order = append(order, fr)
		}
		slices.SortFunc(order, func(a, b *refFrame) int {
			if c := cmp.Compare(a.index, b.index); c != 0 {
				return c
			}
			return a.key.compare(b.key)
		})
		for _, fr := range order {
			copies := make([]PHYObservation, 0, len(fr.best))
			for _, o := range fr.best {
				copies = append(copies, *o)
			}
			slices.SortFunc(copies, func(a, b PHYObservation) int { return strings.Compare(a.GatewayID, b.GatewayID) })
			refCheck(copies)
		}
		if got, want := saveBytes(t, u), saveBytes(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("unbounded window's database differs from the CheckFrame reference:\n%s\nwant\n%s", got, want)
		}
		roundTrip(t, "unbounded window", u)
	})
}

// roundTrip checks that a server's Save bytes load into a fresh server and
// save again unchanged.
func roundTrip(t *testing.T, server string, s *NetworkServer) {
	t.Helper()
	saved := saveBytes(t, s)
	fresh := New(Config{})
	if err := fresh.Load(bytes.NewReader(saved)); err != nil {
		t.Fatalf("%s: Load of its own Save bytes: %v", server, err)
	}
	if again := saveBytes(t, fresh); !bytes.Equal(again, saved) {
		t.Fatalf("%s: Save → Load → Save changed the bytes:\n%s\nwant\n%s", server, again, saved)
	}
}
