package attack

import (
	"errors"
	"math"
)

// Fingerprinter implements the adversary-side device identification the
// paper discusses in §4.2.1 and §7.1: the eavesdropper wants to attack a
// specific node, so it fingerprints transmitters by their frequency bias —
// and, because some nodes share similar biases (Fig. 13's nodes 3, 8, 14),
// "the adversary may jointly use the FBs and the received signal strengths
// that are affected by the transmitters' geographic locations".
type Fingerprinter struct {
	devices map[string]fingerprint
}

// Nearest-neighbor distance scales.
const (
	// fbScaleHz normalizes the FB axis, roughly the per-frame estimation
	// spread.
	fbScaleHz = 200
	// rssiScaledB normalizes the RSSI axis.
	rssiScaledB = 2
)

type fingerprint struct {
	fbHz    float64
	rssidBm float64
}

// ErrNoProfiles is returned when classifying before any Learn call.
var ErrNoProfiles = errors.New("attack: fingerprinter has no learned profiles")

// Learn records (or updates) a device's observed profile.
func (f *Fingerprinter) Learn(deviceID string, fbHz, rssidBm float64) {
	if f.devices == nil {
		f.devices = make(map[string]fingerprint)
	}
	f.devices[deviceID] = fingerprint{fbHz: fbHz, rssidBm: rssidBm}
}

// ClassifyFB identifies the transmitter by frequency bias alone
// (nearest neighbor). Ambiguity is reported via the margin: the ratio of
// the runner-up distance to the winner distance (≤ ~1 means ambiguous).
func (f *Fingerprinter) ClassifyFB(fbHz float64) (deviceID string, margin float64, err error) {
	if len(f.devices) == 0 {
		return "", 0, ErrNoProfiles
	}
	best, second := math.Inf(1), math.Inf(1)
	var bestID string
	for id, fp := range f.devices {
		d := math.Abs(fp.fbHz-fbHz) / fbScaleHz
		switch {
		case d < best:
			second = best
			best = d
			bestID = id
		case d < second:
			second = d
		}
	}
	return bestID, marginOf(best, second), nil
}

// Classify identifies the transmitter from the joint (FB, RSSI) profile.
func (f *Fingerprinter) Classify(fbHz, rssidBm float64) (deviceID string, margin float64, err error) {
	if len(f.devices) == 0 {
		return "", 0, ErrNoProfiles
	}
	best, second := math.Inf(1), math.Inf(1)
	var bestID string
	for id, fp := range f.devices {
		dfb := (fp.fbHz - fbHz) / fbScaleHz
		drssi := (fp.rssidBm - rssidBm) / rssiScaledB
		d := math.Sqrt(dfb*dfb + drssi*drssi)
		switch {
		case d < best:
			second = best
			best = d
			bestID = id
		case d < second:
			second = d
		}
	}
	return bestID, marginOf(best, second), nil
}

// marginOf returns second/best with care for degenerate values.
func marginOf(best, second float64) float64 {
	if math.IsInf(second, 1) {
		return math.Inf(1)
	}
	if best == 0 {
		return math.Inf(1)
	}
	return second / best
}
