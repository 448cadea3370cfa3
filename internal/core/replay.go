package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// Replay-detection defaults.
const (
	// DefaultToleranceHz is the FB deviation beyond which a frame is
	// flagged as replayed. The paper's estimation resolution is 120 Hz
	// (0.14 ppm) and a USRP replayer adds ≥543 Hz (0.62 ppm); 360 Hz
	// (3× the resolution) separates the two with margin on both sides.
	DefaultToleranceHz = 360
	// DefaultEWMAAlpha is the database update weight for tracking slow
	// temperature-induced skew (§7.2: "continuously update the database
	// entries based on the FBs estimated from recent frames").
	DefaultEWMAAlpha = 0.2
	// DefaultEnrollFrames is how many frames are used to learn a new
	// device's bias before detection becomes active for it.
	DefaultEnrollFrames = 3
	// DefaultDevMultiplier widens the acceptance band to this multiple of
	// the tracked per-frame estimation deviation. At low SNR the per-frame
	// FB estimate inherits jitter from the PHY onset timestamp
	// (δ' = δ + k·Δτ, see fb.go), so a device observed through a noisy
	// link legitimately spreads wider than the nominal tolerance.
	DefaultDevMultiplier = 4.0
)

// Verdict classifies a received frame.
type Verdict int

// Verdicts.
const (
	// VerdictGenuine: the FB is consistent with the claimed device.
	VerdictGenuine Verdict = iota + 1
	// VerdictReplay: the FB deviates beyond tolerance — the frame delay
	// attack's replay step is detected.
	VerdictReplay
	// VerdictEnrolling: the device is still being learned; no decision.
	VerdictEnrolling
	// VerdictPending: the frame is held in a streaming dedup window
	// waiting for more receiver copies; the committed verdict follows as
	// a window event.
	VerdictPending
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictGenuine:
		return "genuine"
	case VerdictReplay:
		return "replay"
	case VerdictEnrolling:
		return "enrolling"
	case VerdictPending:
		return "pending"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// BiasRecord is the learned frequency-bias state for one device.
type BiasRecord struct {
	// Mean is the EWMA-tracked bias in Hz.
	Mean float64 `json:"mean_hz"`
	// Dev is the EWMA-tracked mean absolute per-frame deviation in Hz —
	// the device's observed estimation jitter through this gateway's
	// pipeline (grows on low-SNR links).
	Dev float64 `json:"dev_hz"`
	// Min and Max track the observed genuine range.
	Min float64 `json:"min_hz"`
	Max float64 `json:"max_hz"`
	// Count is the number of genuine frames folded in.
	Count int `json:"count"`
	// LastSeen is when the device was last observed, in seconds on the
	// deployment's observation timeline (the PHY arrival-time clock, not
	// wall time). Zero means "never stamped" — records written before
	// aging existed, such as legacy JSON databases without last_seen_s.
	// The network server's TTL sweep evicts on it; see
	// NetworkServer.EvictExpired for how zero is handled.
	LastSeen float64 `json:"last_seen_s,omitempty"`
}

// Touch stamps the record as observed at now. LastSeen only moves forward:
// observations can commit out of arrival order (CheckBatch orders by
// UplinkIndex, gateways' clocks by arrival), and an older frame must not
// rejuvenate-then-expose the record to an earlier eviction horizon.
// Non-finite times are ignored rather than poisoning the record.
func (rec *BiasRecord) Touch(now float64) {
	if math.IsNaN(now) || math.IsInf(now, 0) {
		return
	}
	if now > rec.LastSeen {
		rec.LastSeen = now
	}
}

// Band returns the acceptance half-width for the record given the nominal
// tolerance and deviation multiplier.
func (rec BiasRecord) Band(toleranceHz, devMultiplier float64) float64 {
	if b := devMultiplier * rec.Dev; b > toleranceHz {
		return b
	}
	return toleranceHz
}

// Fold updates the record with a genuine estimate. While the device is
// still enrolling (Count < enrollFrames) the statistics are count-weighted
// running averages, so the learned mean is exactly the average of the
// enrollment window and the deviation its mean absolute deviation; an EWMA
// here would weight the first frame by (1−α)^(n−1) — 0.64 of the total at
// the default α=0.2 over 3 frames. Once enrolled, the EWMA with weight
// alpha tracks slow temperature-induced skew (§7.2).
func (rec *BiasRecord) Fold(fbHz, alpha float64, enrollFrames int) {
	dev := math.Abs(fbHz - rec.Mean)
	if rec.Count < enrollFrames {
		n := float64(rec.Count)
		rec.Mean += (fbHz - rec.Mean) / (n + 1)
		rec.Dev += (dev - rec.Dev) / (n + 1)
	} else {
		rec.Dev = (1-alpha)*rec.Dev + alpha*dev
		rec.Mean = (1-alpha)*rec.Mean + alpha*fbHz
	}
	if fbHz < rec.Min {
		rec.Min = fbHz
	}
	if fbHz > rec.Max {
		rec.Max = fbHz
	}
	rec.Count++
}

// CheckRecord applies the §7.2 verdict-and-update policy to one device
// record: unknown devices (rec == nil) start enrolling (the returned record
// must be stored by the caller), enrolling devices fold the estimate into
// their running statistics, and enrolled devices are classified against the
// adaptive acceptance band — genuine estimates update the record, replays do
// not ("the FB estimated from a frame that is detected to be a replayed one
// should not be used to update the database"). A non-finite estimate fails
// closed: VerdictReplay, nothing folded, no record created — folding a NaN
// into Mean would make the band comparison vacuously true forever after and
// silently disable detection for the device. The network server's sharded
// store applies it under each shard's lock.
//
//softlora:allocfree
func CheckRecord(rec *BiasRecord, fbHz, toleranceHz, devMultiplier, alpha float64, enrollFrames int) (Verdict, *BiasRecord) {
	if math.IsNaN(fbHz) || math.IsInf(fbHz, 0) {
		return VerdictReplay, rec
	}
	if rec == nil {
		//softlora:allocfree-ok enrollment of a first-seen device: one record per device lifetime, never on the steady-state verdict path
		return VerdictEnrolling, &BiasRecord{Mean: fbHz, Min: fbHz, Max: fbHz, Count: 1}
	}
	if rec.Count < enrollFrames {
		rec.Fold(fbHz, alpha, enrollFrames)
		return VerdictEnrolling, rec
	}
	if math.Abs(fbHz-rec.Mean) > rec.Band(toleranceHz, devMultiplier) {
		return VerdictReplay, rec
	}
	rec.Fold(fbHz, alpha, enrollFrames)
	return VerdictGenuine, rec
}

// Validate rejects records that would corrupt detection: non-finite
// statistics (a NaN Dev makes Band NaN and the band comparison always
// false, accepting every frame), negative deviations or counts, and an
// inverted observed range.
func (rec *BiasRecord) Validate() error {
	for _, f := range [...]struct {
		name  string
		value float64
	}{
		{"mean_hz", rec.Mean}, {"dev_hz", rec.Dev},
		{"min_hz", rec.Min}, {"max_hz", rec.Max},
		{"last_seen_s", rec.LastSeen},
	} {
		if math.IsNaN(f.value) || math.IsInf(f.value, 0) {
			return fmt.Errorf("%s %v is not finite", f.name, f.value)
		}
	}
	if rec.Dev < 0 {
		return fmt.Errorf("dev_hz %v is negative", rec.Dev)
	}
	if rec.Count < 0 {
		return fmt.Errorf("count %d is negative", rec.Count)
	}
	if rec.Min > rec.Max {
		return fmt.Errorf("min_hz %v exceeds max_hz %v", rec.Min, rec.Max)
	}
	return nil
}

// ValidateDatabase checks every record of a decoded bias database,
// wrapping failures in ErrBadDatabase. The network server's loaders gate
// on it so a hostile database (e.g. a NaN Dev smuggled into a record)
// cannot disable detection for a device.
func ValidateDatabase(devices map[string]*BiasRecord) error {
	// Validate in sorted-ID order so a database with several bad records
	// reports the same one every run.
	ids := make([]string, 0, len(devices))
	//softlora:nondeterministic-ok keys are sorted before use
	for id := range devices {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		rec := devices[id]
		if rec == nil {
			return fmt.Errorf("%w: device %q: null record", ErrBadDatabase, id)
		}
		if err := rec.Validate(); err != nil {
			return fmt.Errorf("%w: device %q: %v", ErrBadDatabase, id, err)
		}
	}
	return nil
}

// DecodeDatabase reads a JSON bias database (device ID → record) and
// validates it with ValidateDatabase. Decode failures are wrapped in
// ErrBadDatabase too, so a loader needs one error check.
func DecodeDatabase(r io.Reader) (map[string]*BiasRecord, error) {
	var devices map[string]*BiasRecord
	if err := json.NewDecoder(r).Decode(&devices); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDatabase, err)
	}
	if err := ValidateDatabase(devices); err != nil {
		return nil, err
	}
	return devices, nil
}

// ErrBadDatabase is returned when loading a malformed database.
var ErrBadDatabase = errors.New("core: malformed bias database")
