// Package transleaf is un-annotated helper code whose allocation reaches
// allocfree callers through the offenses solved for this package and the
// external stdlib model.
package transleaf

import "strings"

// stamp's only offense is reaching strings, which has no source in the
// load: the external model supplies the chain's last hop. (strings.Repeat
// takes concrete arguments, so no boxing precedes the external edge.)
func stamp() string { return strings.Repeat("x", 2) }

// Mid adds one un-annotated hop.
func Mid() string { return stamp() }

// Hatched cuts the chain at its own call site.
func Hatched() string {
	//softlora:allocfree-ok fixture: hop-level hatch stops propagation here
	return stamp()
}
