// Package a holds annotated functions whose offenses live one call away,
// in package b.
package a

import "crosspkg/b"

// Verdict must be deterministic, but b.Stamp reads the wall clock.
//
//softlora:deterministic
func Verdict() int64 { return b.Stamp() }

// Fill must not allocate, but b.Grow does.
//
//softlora:allocfree
func Fill(n int) []float64 { return b.Grow(n) }
