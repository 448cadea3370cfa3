// Package transleaf is un-scoped helper code; a deterministic package
// calling into it must inherit its wall-clock read through the offenses
// solved for this package, not by being scoped itself.
package transleaf

import "time"

// Stamp reads the wall clock directly.
func Stamp() float64 { return float64(time.Now().UnixNano()) }

// Mid adds one un-annotated hop to the chain.
func Mid() float64 { return Stamp() }

// Hatched cuts the chain at its own call site: callers see no offense.
func Hatched() float64 {
	//softlora:nondeterministic-ok fixture: hop-level hatch stops propagation here
	return Stamp()
}
