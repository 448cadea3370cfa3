package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestVerdictString(t *testing.T) {
	tests := []struct {
		v    Verdict
		want string
	}{
		{VerdictGenuine, "genuine"},
		{VerdictReplay, "replay"},
		{VerdictEnrolling, "enrolling"},
		{Verdict(9), "Verdict(9)"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// recordDB is the smallest bias database: CheckRecord over a plain map,
// the way the network server applies it to each shard's map.
type recordDB map[string]*BiasRecord

func (db recordDB) check(id string, fbHz float64) Verdict {
	return db.checkEnroll(id, fbHz, DefaultEnrollFrames)
}

func (db recordDB) checkEnroll(id string, fbHz float64, enrollFrames int) Verdict {
	v, rec := CheckRecord(db[id], fbHz, DefaultToleranceHz, DefaultDevMultiplier, DefaultEWMAAlpha, enrollFrames)
	if rec != nil {
		db[id] = rec
	}
	return v
}

// enroll installs a record already learned from frames frames at fbHz.
func (db recordDB) enroll(id string, fbHz float64, frames int) {
	db[id] = &BiasRecord{Mean: fbHz, Min: fbHz, Max: fbHz, Count: frames}
}

func (db recordDB) record(id string) (BiasRecord, bool) {
	rec, ok := db[id]
	if !ok {
		return BiasRecord{}, false
	}
	return *rec, true
}

func TestDetectorEnrollThenDetect(t *testing.T) {
	d := recordDB{}
	// First frames: enrolling.
	for i := 0; i < DefaultEnrollFrames; i++ {
		if v := d.check("node-1", -22000+float64(i)*10); v != VerdictEnrolling {
			t.Fatalf("frame %d: verdict = %v, want enrolling", i, v)
		}
	}
	// Genuine frame within tolerance.
	if v := d.check("node-1", -22050); v != VerdictGenuine {
		t.Errorf("genuine frame: verdict = %v", v)
	}
	// Replay: USRP adds −543..−743 Hz (paper Fig. 13).
	if v := d.check("node-1", -22000-620); v != VerdictReplay {
		t.Errorf("replayed frame: verdict = %v, want replay", v)
	}
}

func TestDetectorReplayDoesNotPoisonDatabase(t *testing.T) {
	d := recordDB{}
	d.enroll("node-1", -22000, 10)
	before, _ := d.record("node-1")
	if v := d.check("node-1", -22700); v != VerdictReplay {
		t.Fatalf("verdict = %v", v)
	}
	after, _ := d.record("node-1")
	if after.Mean != before.Mean || after.Count != before.Count {
		t.Error("replay estimate must not update the database (§7.2)")
	}
}

func TestDetectorTracksTemperatureDrift(t *testing.T) {
	// §7.2: the gateway continuously updates entries so slow skew (e.g.
	// temperature) stays within tolerance while the replay step's sudden
	// jump is still caught.
	d := recordDB{}
	d.enroll("node-1", -22000, 10)
	fb := -22000.0
	for i := 0; i < 200; i++ {
		fb += 20 // 20 Hz per frame: slow drift, 4 kHz total
		if v := d.check("node-1", fb); v != VerdictGenuine {
			t.Fatalf("drift frame %d (fb %f): verdict = %v", i, fb, v)
		}
	}
	// After drifting 4 kHz, a replayer's extra −620 Hz must still trip.
	if v := d.check("node-1", fb-620); v != VerdictReplay {
		t.Errorf("post-drift replay: verdict = %v", v)
	}
}

func TestDetectorSimilarBiasesAcrossNodes(t *testing.T) {
	// The paper stresses detection needs no uniqueness: two nodes may
	// share a bias (Fig. 13's nodes 3, 8, 14) and detection still works
	// per-node.
	d := recordDB{}
	d.enroll("node-3", -21000, 10)
	d.enroll("node-8", -21010, 10)
	if v := d.check("node-3", -21020); v != VerdictGenuine {
		t.Errorf("node-3: %v", v)
	}
	if v := d.check("node-8", -21640); v != VerdictReplay {
		t.Errorf("node-8 replay: %v", v)
	}
}

func TestDetectorColdStart(t *testing.T) {
	d := recordDB{}
	if v := d.check("newcomer", -20000); v != VerdictEnrolling {
		t.Errorf("first frame: %v", v)
	}
	if len(d) != 1 {
		t.Errorf("devices = %d", len(d))
	}
	if _, ok := d.record("missing"); ok {
		t.Error("missing device should not have a record")
	}
}

func TestDetectorMinMaxTracking(t *testing.T) {
	d := recordDB{}
	d.enroll("n", -22000, 10)
	d.check("n", -22100)
	d.check("n", -21900)
	rec, ok := d.record("n")
	if !ok {
		t.Fatal("record missing")
	}
	if rec.Min != -22100 || rec.Max != -21900 {
		t.Errorf("range = [%f, %f]", rec.Min, rec.Max)
	}
	if rec.Count != 12 {
		t.Errorf("count = %d", rec.Count)
	}
}

func TestDetectorEnrollmentLearnsWindowAverage(t *testing.T) {
	// With the default 3-frame enrollment, the learned mean must be the
	// plain average of the window, not an EWMA that weights the first
	// frame by 0.64 and reacts sluggishly to the rest.
	d := recordDB{}
	window := []float64{-22000, -21900, -21700}
	for i, fb := range window {
		if v := d.check("n", fb); v != VerdictEnrolling {
			t.Fatalf("frame %d: verdict = %v, want enrolling", i, v)
		}
	}
	rec, ok := d.record("n")
	if !ok {
		t.Fatal("record missing")
	}
	wantMean := (window[0] + window[1] + window[2]) / 3
	if math.Abs(rec.Mean-wantMean) > 1e-9 {
		t.Errorf("post-enrollment mean = %f, want window average %f", rec.Mean, wantMean)
	}
	if rec.Count != len(window) {
		t.Errorf("count = %d, want %d", rec.Count, len(window))
	}
	// The running mean-abs-deviation must be positive for a spread window
	// (it seeds the adaptive band) and bounded by the window's span.
	if rec.Dev <= 0 || rec.Dev > 300 {
		t.Errorf("post-enrollment dev = %f", rec.Dev)
	}
	// Detection activates on the next frame using the window statistics.
	if v := d.check("n", wantMean-620); v != VerdictReplay {
		t.Errorf("replay after enrollment: verdict = %v", v)
	}
}

func TestDetectorEnrollmentRunningMeanLongWindow(t *testing.T) {
	// A longer explicit enrollment window must also average exactly: the
	// count-weighted running mean is order-independent up to rounding.
	d := recordDB{}
	window := []float64{-100, 300, -500, 700, -900}
	sum := 0.0
	for _, fb := range window {
		d.checkEnroll("long", fb, len(window))
		sum += fb
	}
	rec, _ := d.record("long")
	if math.Abs(rec.Mean-sum/5) > 1e-9 {
		t.Errorf("mean = %f, want %f", rec.Mean, sum/5)
	}
}

func TestDetectorLoadRejectsHostileDatabase(t *testing.T) {
	// A record with Dev: NaN makes Band NaN, and |fb − mean| > NaN is
	// always false — every frame from that device would be accepted as
	// genuine. Decoding must reject such databases outright.
	cases := map[string]string{
		"nan mean":       `{"n": {"mean_hz": "NaN", "dev_hz": 0, "min_hz": 0, "max_hz": 0, "count": 1}}`,
		"negative dev":   `{"n": {"mean_hz": -22000, "dev_hz": -5, "min_hz": -22000, "max_hz": -22000, "count": 10}}`,
		"negative count": `{"n": {"mean_hz": -22000, "dev_hz": 0, "min_hz": -22000, "max_hz": -22000, "count": -1}}`,
		"inverted range": `{"n": {"mean_hz": -22000, "dev_hz": 0, "min_hz": -21000, "max_hz": -22000, "count": 10}}`,
		"null record":    `{"n": null}`,
	}
	for name, hostile := range cases {
		devices, err := DecodeDatabase(strings.NewReader(hostile))
		if !errors.Is(err, ErrBadDatabase) {
			t.Errorf("%s: err = %v, want ErrBadDatabase", name, err)
		}
		if devices != nil {
			t.Errorf("%s: rejected database still returned %v", name, devices)
		}
	}
	good := `{"n": {"mean_hz": -22000, "dev_hz": 5, "min_hz": -22010, "max_hz": -21990, "count": 10}}`
	devices, err := DecodeDatabase(strings.NewReader(good))
	if err != nil {
		t.Fatalf("valid database rejected: %v", err)
	}
	if rec := devices["n"]; rec == nil || rec.Mean != -22000 || rec.Count != 10 {
		t.Errorf("decoded record = %+v", rec)
	}
}

func TestNonFiniteRecordWouldAcceptReplays(t *testing.T) {
	// Demonstrate the attack Validate closes: with a NaN Mean installed,
	// |fb − NaN| > band is always false and CheckRecord accepts an
	// arbitrarily wrong bias as genuine; an infinite Dev inflates the
	// band the same way. Validate must refuse such records before they
	// can reach a database.
	hostile := []BiasRecord{
		{Mean: math.NaN(), Dev: 0, Min: -22000, Max: -22000, Count: 10},
		{Mean: -22000, Dev: math.Inf(1), Min: -22000, Max: -22000, Count: 10},
		{Mean: -22000, Dev: math.NaN(), Min: -22000, Max: -22000, Count: 10},
	}
	for i := range hostile {
		rec := hostile[i]
		v, _ := CheckRecord(&rec, -22000-5e6, DefaultToleranceHz, DefaultDevMultiplier, DefaultEWMAAlpha, DefaultEnrollFrames)
		if i < 2 && v != VerdictGenuine {
			t.Errorf("record %d: verdict = %v: non-finite record no longer swallows replays", i, v)
		}
		if err := hostile[i].Validate(); err == nil {
			t.Errorf("record %d passed validation", i)
		}
	}
}

func TestCheckNonFiniteEstimateFailsClosed(t *testing.T) {
	// A NaN/Inf estimate must be rejected without folding: folding NaN
	// into Mean would disable detection for the device forever after.
	d := recordDB{}
	d.enroll("n", -22000, 10)
	for _, fb := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if v := d.check("n", fb); v != VerdictReplay {
			t.Errorf("check(%v) = %v, want replay (fail closed)", fb, v)
		}
	}
	rec, _ := d.record("n")
	if rec.Mean != -22000 || rec.Count != 10 {
		t.Errorf("non-finite estimate mutated the record: %+v", rec)
	}
	// An unknown device must not get a record created from garbage.
	if v := d.check("newcomer", math.NaN()); v != VerdictReplay {
		t.Errorf("unknown device NaN: %v", v)
	}
	if _, ok := d.record("newcomer"); ok {
		t.Error("NaN estimate created a device record")
	}
	// The database must still encode: JSON refuses NaN, so this fails if
	// one was smuggled into a record.
	if _, err := json.Marshal(d); err != nil {
		t.Errorf("encoding after NaN checks: %v", err)
	}
}

func TestValidateBiasRecord(t *testing.T) {
	good := BiasRecord{Mean: -22000, Dev: 10, Min: -22100, Max: -21900, Count: 5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	bad := good
	bad.Max = math.Inf(1)
	if err := bad.Validate(); err == nil {
		t.Error("infinite max accepted")
	}
	bad = good
	bad.LastSeen = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN LastSeen accepted")
	}
}

func TestBiasRecordTouchMonotonic(t *testing.T) {
	var rec BiasRecord
	rec.Touch(100)
	if rec.LastSeen != 100 {
		t.Fatalf("LastSeen = %v after Touch(100)", rec.LastSeen)
	}
	// Out-of-order commits must not move the stamp backwards.
	rec.Touch(40)
	if rec.LastSeen != 100 {
		t.Errorf("Touch(40) rewound LastSeen to %v", rec.LastSeen)
	}
	rec.Touch(250.5)
	if rec.LastSeen != 250.5 {
		t.Errorf("Touch(250.5) gave %v", rec.LastSeen)
	}
	// Non-finite times are ignored, never stored.
	rec.Touch(math.NaN())
	rec.Touch(math.Inf(1))
	if rec.LastSeen != 250.5 {
		t.Errorf("non-finite Touch changed LastSeen to %v", rec.LastSeen)
	}
}

func TestBiasRecordLastSeenJSONCompat(t *testing.T) {
	// Legacy databases have no last_seen_s field and must keep decoding
	// to a zero stamp; a zero stamp must re-encode without the field so
	// legacy files stay byte-stable.
	var rec BiasRecord
	if err := json.Unmarshal([]byte(`{"mean_hz":-22000,"dev_hz":10,"min_hz":-22100,"max_hz":-21900,"count":5}`), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.LastSeen != 0 {
		t.Errorf("legacy decode stamped LastSeen = %v", rec.LastSeen)
	}
	out, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out, []byte("last_seen_s")) {
		t.Errorf("zero LastSeen serialized: %s", out)
	}
	rec.Touch(12.5)
	out, err = json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out, []byte(`"last_seen_s":12.5`)) {
		t.Errorf("stamped LastSeen missing from %s", out)
	}
}

func TestDetectorFalsePositiveRate(t *testing.T) {
	// Genuine frames with realistic per-frame jitter (σ = 30-50 Hz, Fig. 13
	// error bars) must essentially never be flagged.
	d := recordDB{}
	d.enroll("n", -22000, 10)
	rng := rand.New(rand.NewSource(111))
	flagged := 0
	const frames = 2000
	for i := 0; i < frames; i++ {
		fb := -22000 + rng.NormFloat64()*50
		if d.check("n", fb) == VerdictReplay {
			flagged++
		}
	}
	if flagged > 0 {
		t.Errorf("false positives: %d/%d", flagged, frames)
	}
}

func TestDetectorTruePositiveRate(t *testing.T) {
	// Replays with the paper's measured extra FB (−543..−743 Hz) must
	// always be flagged despite estimation noise.
	d := recordDB{}
	d.enroll("n", -22000, 10)
	rng := rand.New(rand.NewSource(112))
	const frames = 2000
	for i := 0; i < frames; i++ {
		extra := -543 - rng.Float64()*200
		fb := -22000 + extra + rng.NormFloat64()*50
		if v := d.check("n", fb); v != VerdictReplay {
			t.Fatalf("frame %d (fb %f): verdict = %v", i, fb, v)
		}
	}
}
