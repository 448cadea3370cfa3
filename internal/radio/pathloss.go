package radio

import "math"

// SpeedOfLight in m/s, used for propagation delays.
const SpeedOfLight = 299_792_458.0

// FreeSpacePathLoss returns the free-space path loss in dB for distance d
// meters at frequency f Hz (Friis): 20*log10(d) + 20*log10(f) − 147.55.
func FreeSpacePathLoss(d, f float64) float64 {
	if d <= 0 || f <= 0 {
		return 0
	}
	return 20*math.Log10(d) + 20*math.Log10(f) - 147.55
}

// LogDistance models indoor/urban propagation: PL(d) = PL(d0) +
// 10*n*log10(d/d0) plus fixed obstacle losses added by the caller.
type LogDistance struct {
	// RefLossdB is the path loss at the reference distance RefDistance.
	RefLossdB float64
	// RefDistance is the reference distance in meters (default 1).
	RefDistance float64
	// Exponent is the path-loss exponent n (2 free space, 2.7-4 indoor).
	Exponent float64
}

// LossdB returns the path loss in dB at distance d meters.
func (l LogDistance) LossdB(d float64) float64 {
	d0 := l.RefDistance
	if d0 <= 0 {
		d0 = 1
	}
	if d < d0 {
		d = d0
	}
	return l.RefLossdB + 10*l.Exponent*math.Log10(d/d0)
}

// PropagationDelay returns the line-of-sight propagation delay in seconds
// for d meters.
func PropagationDelay(d float64) float64 { return d / SpeedOfLight }

// DBmToPower converts dBm to the linear sample-power convention of this
// package (0 dBm → 1.0).
func DBmToPower(dbm float64) float64 { return math.Pow(10, dbm/10) }

// PowerTodBm converts linear sample power to dBm (1.0 → 0 dBm).
func PowerTodBm(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(p)
}
