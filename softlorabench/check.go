package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"

	"softlora"
	"softlora/internal/core"
	"softlora/internal/netserver"
	"softlora/internal/timestamp"
)

// Names of the per-operation checks. An operation that fails one is counted
// in the run's "failed" total; it never aborts the run.
const (
	failError      = "error"      // the program returned an error
	failVerdict    = "verdict"    // replay verdict differs from the truth
	failTimestamp  = "timestamp"  // a reconstructed timestamp is out of bound
	failDropped    = "dropped"    // a frame got no committed verdict
	failDuplicated = "duplicated" // a frame got more than one committed verdict
)

// uplinkTruth is what the generator knows about one rendered uplink.
type uplinkTruth struct {
	// Replay marks an uplink rendered through the replayer's oscillator.
	Replay bool
	// EmissionFBHz is the frequency bias the emission was rendered with
	// (device oscillator, per-frame jitter and, for a replay, the
	// replayer's bias); the SDR front end adds none.
	EmissionFBHz float64
	// OnsetSample is where the emission starts in the capture.
	OnsetSample float64
	// SentAt is the transmit time, RecordTimes the true global times the
	// frame's buffered records were taken at.
	SentAt      float64
	RecordTimes []float64
	DriftPPM    float64
	PropDelay   float64
}

// checkUplink compares the gateway's result for one uplink with the truth
// and returns the name of the first check it fails, or "". onsetTol is the
// PHY timestamp tolerance (seconds) of the workload's onset detector.
func checkUplink(tr *uplinkTruth, res softlora.BatchResult, onsetTol float64) string {
	if res.Err != nil || res.Report == nil {
		return failError
	}
	r := res.Report
	want := softlora.VerdictGenuine
	if tr.Replay {
		want = softlora.VerdictReplay
	}
	if r.Verdict != want || r.Accepted == tr.Replay {
		return failVerdict
	}
	if !r.Accepted {
		if r.Timestamps != nil {
			return failTimestamp
		}
		return ""
	}
	if len(r.Timestamps) != len(tr.RecordTimes) {
		return failTimestamp
	}
	for i, ts := range r.Timestamps {
		bound := timestamp.TimestampingError{
			BufferTime:       tr.SentAt - tr.RecordTimes[i],
			DriftPPM:         tr.DriftPPM,
			RadioUncertainty: onsetTol,
			PropagationDelay: tr.PropDelay,
		}.Bound()
		if !(math.Abs(ts-tr.RecordTimes[i]) <= bound) {
			return failTimestamp
		}
	}
	return ""
}

// frameOutcome is what the server committed for one logical frame.
type frameOutcome struct {
	committed int          // non-revised verdict events
	last      core.Verdict // the latest verdict, revisions included
}

// frameLedger collects a server's verdict events per logical frame.
type frameLedger struct {
	out []frameOutcome
	// index maps a FrameID to its logical frame number.
	index map[string]int
}

func newFrameLedger(index map[string]int) *frameLedger {
	return &frameLedger{out: make([]frameOutcome, len(index)), index: index}
}

// add records verdict events. An event for a frame the generator never
// produced is a program fault, reported as an error.
func (l *frameLedger) add(events []netserver.FrameVerdict) error {
	for _, ev := range events {
		k, ok := l.index[ev.FrameID]
		if !ok {
			return fmt.Errorf("verdict for unknown frame %q", ev.FrameID)
		}
		o := &l.out[k]
		if !ev.Revised {
			o.committed++
		}
		o.last = ev.Verdict
	}
	return nil
}

// checkFrame returns the name of the first check frame k fails, or "".
func (l *frameLedger) checkFrame(k int, replay bool) string {
	o := l.out[k]
	switch {
	case o.committed == 0:
		return failDropped
	case o.committed > 1:
		return failDuplicated
	}
	want := core.VerdictGenuine
	if replay {
		want = core.VerdictReplay
	}
	if o.last != want {
		return failVerdict
	}
	return ""
}

// digest hashes a run's outputs into one value that must be a pure function
// of (workload, seed): float outputs enter by their exact bits.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	io.WriteString(d.h, s)
}

// uplink adds one gateway result: error text or verdict, FB, arrival,
// onset and reconstructed timestamps.
func (d *digest) uplink(res softlora.BatchResult) {
	if res.Err != nil {
		d.str("error:" + res.Err.Error())
		return
	}
	r := res.Report
	d.str(string(r.Verdict))
	d.f64(r.FrequencyBiasHz)
	d.f64(r.ArrivalTime)
	d.u64(uint64(r.OnsetSample))
	d.u64(uint64(len(r.Timestamps)))
	for _, ts := range r.Timestamps {
		d.f64(ts)
	}
}

// frame adds one server verdict event.
func (d *digest) frame(v netserver.FrameVerdict) {
	d.str(v.FrameID)
	d.str(v.Verdict.String())
	d.f64(v.FBHz)
	d.f64(v.ArrivalTime)
	d.u64(uint64(v.Receivers))
	if v.Revised {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

// database adds a server's serialized bias database.
func (d *digest) database(s *netserver.NetworkServer) error {
	d.str("db")
	return s.Save(d.h)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// checkRecovered compares a recovered server's database with the live one
// it was flushed from; any difference invalidates the run.
func checkRecovered(live, recovered *netserver.NetworkServer) error {
	a, b := newDigest(), newDigest()
	if err := a.database(live); err != nil {
		return fmt.Errorf("recovery: saving live database: %w", err)
	}
	if err := b.database(recovered); err != nil {
		return fmt.Errorf("recovery: saving recovered database: %w", err)
	}
	if a.sum() != b.sum() {
		return fmt.Errorf("recovery: recovered database differs from the live one (%d vs %d devices)",
			recovered.Devices(), live.Devices())
	}
	return nil
}
