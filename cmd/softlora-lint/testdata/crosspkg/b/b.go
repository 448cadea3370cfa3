// Package b is un-annotated helper code. Its offenses reach the annotated
// functions of package a only through what softlora-lint solved for b.
package b

import "time"

// Stamp reads the wall clock.
func Stamp() int64 { return time.Now().UnixNano() }

// Grow allocates.
func Grow(n int) []float64 { return make([]float64, n) }
