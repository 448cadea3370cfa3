package timestamp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"softlora/internal/clock"
)

func TestEncodeDecodeElapsed(t *testing.T) {
	tests := []struct {
		in   float64
		want uint32
	}{
		{0, 0}, {0.001, 1}, {1.0, 1000}, {262.143, 262143},
	}
	for _, tt := range tests {
		got, err := EncodeElapsed(tt.in)
		if err != nil {
			t.Fatalf("EncodeElapsed(%f): %v", tt.in, err)
		}
		if got != tt.want {
			t.Errorf("EncodeElapsed(%f) = %d, want %d", tt.in, got, tt.want)
		}
		if back := DecodeElapsed(got); math.Abs(back-tt.in) > ElapsedResolution/2 {
			t.Errorf("decode(%d) = %f, want ~%f", got, back, tt.in)
		}
	}
}

func TestEncodeElapsedErrors(t *testing.T) {
	if _, err := EncodeElapsed(-1); !errors.Is(err, ErrElapsedNegative) {
		t.Errorf("err = %v", err)
	}
	// 2^32 ms and beyond wrap in a float → uint32 conversion; NaN and +Inf
	// have no uint32 value at all.
	for _, s := range []float64{MaxElapsedSeconds + 1, 4294967.296, 4295067.296, math.NaN(), math.Inf(1)} {
		if v, err := EncodeElapsed(s); !errors.Is(err, ErrElapsedOverflow) {
			t.Errorf("EncodeElapsed(%g) = (%d, %v), want ErrElapsedOverflow", s, v, err)
		}
	}
}

func TestEncodeElapsedProperty(t *testing.T) {
	f := func(ms uint32) bool {
		ms %= 1 << ElapsedBits
		v, err := EncodeElapsed(float64(ms) * ElapsedResolution)
		return err == nil && v == ms
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEncodeElapsedAnyFloat checks that every float64 either fails to
// encode or encodes to an in-range value that decodes within half a
// resolution step (plus 1 ns of float rounding slack): arbitrary bit
// patterns, the range's edges, and fractional millisecond counts below
// 2^19 offset by 0–7 multiples of 2^32, where a wrapping conversion would
// land back inside the range.
func TestEncodeElapsedAnyFloat(t *testing.T) {
	ok := func(s float64) bool {
		v, err := EncodeElapsed(s)
		if err != nil {
			return true
		}
		return v < 1<<ElapsedBits && math.Abs(DecodeElapsed(v)-s) <= ElapsedResolution/2+1e-9
	}
	for _, s := range []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, MaxElapsedSeconds,
		MaxElapsedSeconds + 0.00049, MaxElapsedSeconds + 0.0005, 4294967.2955,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		if !ok(s) {
			v, err := EncodeElapsed(s)
			t.Errorf("EncodeElapsed(%g) = (%d, %v)", s, v, err)
		}
	}
	bits := func(b uint64) bool { return ok(math.Float64frombits(b)) }
	counts := func(period uint8, n, frac uint32) bool {
		ms := float64(uint64(period%8)<<32+uint64(n%(1<<19))) + float64(frac)/(1<<32)
		return ok(ms * ElapsedResolution)
	}
	for _, f := range []any{bits, counts} {
		if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
			t.Error(err)
		}
	}
}

func TestMaxElapsedMatchesPaper(t *testing.T) {
	// 18 bits at 1 ms covers the paper's 4.1-minute buffering bound.
	if MaxElapsedSeconds < 4.1*60 {
		t.Errorf("max elapsed %f s cannot cover 4.1 minutes", MaxElapsedSeconds)
	}
	if MaxElapsedSeconds > 5*60 {
		t.Errorf("max elapsed %f s is wastefully large", MaxElapsedSeconds)
	}
}

func TestDeviceFlushAndReconstruct(t *testing.T) {
	osc := &clock.Oscillator{DriftPPM: 40}
	d := &Device{Clock: osc}
	// Data taken at global t=100 and t=130; transmitted at t=160.
	d.Take(100, []byte("a"))
	d.Take(130, []byte("b"))
	if len(d.buffer) != 2 {
		t.Fatalf("pending = %d", len(d.buffer))
	}
	recs, err := d.Flush(160)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || len(d.buffer) != 0 {
		t.Fatalf("flush returned %d records, pending %d", len(recs), len(d.buffer))
	}
	// The gateway receives the frame essentially at t=160 (propagation is
	// microseconds).
	arrival := 160.0
	got0 := Reconstruct(arrival, recs[0])
	got1 := Reconstruct(arrival, recs[1])
	// Error budget: 60 s * 40 ppm = 2.4 ms drift + 0.5 ms quantization.
	if math.Abs(got0-100) > 0.005 {
		t.Errorf("record 0 reconstructed at %f, want ~100", got0)
	}
	if math.Abs(got1-130) > 0.005 {
		t.Errorf("record 1 reconstructed at %f, want ~130", got1)
	}
}

func TestDeviceFlushDropsExpiredRecords(t *testing.T) {
	osc := &clock.Oscillator{}
	d := &Device{Clock: osc}
	d.Take(0, []byte("too old"))
	d.Take(290, []byte("fresh"))
	recs, err := d.Flush(300) // first record is 300 s old > 262.1 s range
	if !errors.Is(err, ErrElapsedOverflow) {
		t.Errorf("err = %v, want overflow", err)
	}
	if len(recs) != 1 || string(recs[0].Value) != "fresh" {
		t.Errorf("recs = %+v", recs)
	}
}

func TestReconstructionErrorGrowsWithBufferTime(t *testing.T) {
	osc := &clock.Oscillator{DriftPPM: 40}
	errAt := func(bufferTime float64) float64 {
		d := &Device{Clock: osc}
		take := 1000.0
		d.Take(take, nil)
		recs, err := d.Flush(take + bufferTime)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(Reconstruct(take+bufferTime, recs[0]) - take)
	}
	if errAt(10) >= errAt(200) {
		t.Error("reconstruction error should grow with buffer time")
	}
	// At the 4.1-minute bound the error stays within ~10 ms + quantization.
	if e := errAt(250); e > 0.011 {
		t.Errorf("error at 250 s buffer = %f, want <= ~10.5 ms", e)
	}
}

func TestOverheadPaperNumbers(t *testing.T) {
	// Paper §3.2: 8-byte timestamps in 30-byte payloads consume 27% of
	// effective bandwidth.
	o := Overhead{PayloadBytes: 30, TimestampBytes: 8}
	if frac := o.SyncBasedPayloadFraction(); math.Abs(frac-0.2667) > 0.005 {
		t.Errorf("sync-based fraction = %f, want ~0.267", frac)
	}
	if bits := o.SyncFreePayloadBits(); bits != 18 {
		t.Errorf("sync-free bits = %d, want 18", bits)
	}
	if (Overhead{}).SyncBasedPayloadFraction() != 0 {
		t.Error("degenerate overhead should be 0")
	}
}

func TestTimestampingErrorBound(t *testing.T) {
	// Paper: commodity stack uncertainty ~3 ms dominates; SoftLoRa PHY
	// timestamping removes it.
	commodity := TimestampingError{
		BufferTime:       250,
		DriftPPM:         40,
		RadioUncertainty: 3e-3,
		PropagationDelay: 3.57e-6,
	}
	if b := commodity.Bound(); b < 0.013 || b > 0.015 {
		t.Errorf("commodity bound = %f, want ~13.5 ms", b)
	}
	softlora := TimestampingError{
		BufferTime:       0, // immediate transmission
		DriftPPM:         40,
		RadioUncertainty: 20e-6,
		PropagationDelay: 3.57e-6,
	}
	if b := softlora.Bound(); b > 0.001 {
		t.Errorf("SoftLoRa bound = %f, want sub-ms", b)
	}
	neg := TimestampingError{BufferTime: -10, DriftPPM: 40}
	if neg.Bound() < 0 {
		t.Error("bound must be non-negative")
	}
}

func TestFlushNegativeElapsedClamped(t *testing.T) {
	// A record "taken in the future" (clock adjustment) clamps to 0.
	osc := &clock.Oscillator{}
	d := &Device{Clock: osc}
	d.Take(100, nil)
	recs, err := d.Flush(99)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Elapsed != 0 {
		t.Errorf("elapsed = %d, want 0", recs[0].Elapsed)
	}
}
