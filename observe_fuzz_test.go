package softlora

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"softlora/internal/core"
	"softlora/internal/sdr"
)

// TestObserveIQRejectsEmptyCapture: a capture with no frame in it, all
// zero, is an error through AIC onset and linear-regression FB (the zero
// Config). It used to yield onset sample 8 and a finite FB. The first case
// is FuzzGatewayObserveIQ's all-zero seed.
func TestObserveIQRejectsEmptyCapture(t *testing.T) {
	for _, c := range []struct {
		samples int
		rate    float64
	}{{768, 250e3}, {9778, 2.4e6}} {
		gw, err := NewGateway(Config{Onset: OnsetAIC, FB: FBLinearRegression, Rand: rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatal(err)
		}
		obs, err := gw.ObserveIQ(&sdr.Capture{IQ: make([]complex128, c.samples), Rate: c.rate}, "dev", "frame")
		if !errors.Is(err, core.ErrNoEstimate) {
			t.Errorf("%d zero samples at %g Hz: observation %+v, error %v; want ErrNoEstimate", c.samples, c.rate, obs, err)
		}
	}
}

// FuzzGatewayObserveIQ drives ObserveIQ, the gateway's boundary for
// recorded SDR I/Q, with arbitrary bytes read as interleaved little-endian
// float32 I/Q (the fbscan and GNU Radio interchange format; a trailing
// partial sample is dropped), an arbitrary sample rate, and every onset and
// FB method. The invariant: a typed error, or an observation whose FB,
// jitter and arrival time are finite and whose onset sample lies inside the
// capture. Each input gets a fresh gateway, so a failure replays alone.
//
// The committed seeds under testdata/fuzz cover an all-zero, an all-NaN and
// a ±Inf capture, a preamble cut off mid-chirp, an fbscan gen capture, and
// the rates 0, −1, NaN, +Inf and 1e300.
func FuzzGatewayObserveIQ(f *testing.F) {
	onsets := []OnsetMethod{OnsetAIC, OnsetEnvelope, OnsetDechirp}
	fbs := []FBMethod{FBLinearRegression, FBLeastSquares, FBDechirpFFT, FBUpDown}
	f.Fuzz(func(t *testing.T, raw []byte, rate float64, onsetSel, fbSel byte) {
		gw, err := NewGateway(Config{
			Onset: onsets[int(onsetSel)%len(onsets)],
			FB:    fbs[int(fbSel)%len(fbs)],
			Rand:  rand.New(rand.NewSource(1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		iq := make([]complex128, len(raw)/8)
		for i := range iq {
			re := math.Float32frombits(binary.LittleEndian.Uint32(raw[8*i:]))
			im := math.Float32frombits(binary.LittleEndian.Uint32(raw[8*i+4:]))
			iq[i] = complex(float64(re), float64(im))
		}
		obs, err := gw.ObserveIQ(&sdr.Capture{IQ: iq, Rate: rate}, "dev", "frame")
		if err != nil {
			for _, typed := range []error{ErrBadSampleRate, ErrCaptureShort, ErrNonFinite,
				core.ErrOnsetNotFound, core.ErrChirpTooShort, core.ErrNoEstimate} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped error: %v", err)
		}
		if !finite(obs.FBHz) || !finite(obs.JitterHz) || !finite(obs.ArrivalTime) {
			t.Fatalf("non-finite observation: FB %g Hz, jitter %g Hz, arrival %g s", obs.FBHz, obs.JitterHz, obs.ArrivalTime)
		}
		if obs.OnsetSample < 0 || obs.OnsetSample >= len(iq) {
			t.Fatalf("onset sample %d outside the %d-sample capture", obs.OnsetSample, len(iq))
		}
	})
}
