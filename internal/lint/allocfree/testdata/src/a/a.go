// Package a exercises the allocfree analyzer's direct construct classes.
package a

import (
	"fmt"
	"hash/fnv"
)

type point struct{ x, y int }

func run() {}

//softlora:allocfree
func direct(n int, s string, bs []byte) {
	m := make([]int, n) // want `allocation in an allocfree function: allocates with make`
	_ = m
	p := new(int) // want `allocation in an allocfree function: allocates with new`
	_ = p
	sl := []int{1, 2} // want `allocation in an allocfree function: allocates a slice literal`
	_ = sl
	mp := map[int]int{1: 2} // want `allocation in an allocfree function: allocates a map literal`
	_ = mp
	pt := &point{1, 2} // want `allocation in an allocfree function: allocates an escaping composite literal`
	_ = pt
	var g []int
	g = append(g, n) // want `allocation in an allocfree function: grows a slice with append`
	_ = g
	f := func() int { return n } // want `allocation in an allocfree function: allocates a closure`
	_ = f
	b2 := []byte(s) // want `allocation in an allocfree function: converts string to \[\]byte/\[\]rune`
	_ = b2
	s2 := string(bs) // want `allocation in an allocfree function: converts \[\]byte/\[\]rune to string`
	_ = s2
	cat := s + "!" // want `allocation in an allocfree function: concatenates strings`
	_ = cat
	var i interface{} = n // want `allocation in an allocfree function: boxes int into interface\{\}`
	_ = i
	go run() // want `allocation in an allocfree function: starts a goroutine`
}

//softlora:allocfree
func presized(n int) []int {
	out := make([]int, 0, n) // want `allocation in an allocfree function: allocates with make`
	for i := 0; i < n; i++ {
		out = append(out, i) // no append diagnostic: capacity-bounded by the make above
	}
	return out
}

//softlora:allocfree
func callsFmt(n int) {
	fmt.Println(n) // want `allocation in an allocfree function: boxes int into any` `allocfree function reaches an allocation: a\.callsFmt → fmt\.Println: fmt\.Println is modeled as allocating \(package fmt\)`
}

//softlora:allocfree
func callsFnv() uint32 {
	h := fnv.New32a() // want `allocfree function reaches an allocation: a\.callsFnv → fnv\.New32a: fnv\.New32a is modeled as allocating \(package hash/fnv\)`
	return h.Sum32()
}

//softlora:allocfree
func panics(n int) int {
	if n < 0 {
		// No diagnostic: panic arguments are cold by definition.
		panic(fmt.Sprintf("n = %d", n))
	}
	return n
}

//softlora:allocfree
func hatched(n int) []int {
	//softlora:allocfree-ok fixture exercises the hatch
	out := make([]int, n)
	return out
}

// unannotated is never checked directly; constant-folded concatenation
// and comparisons are fine anywhere.
func unannotated(s string) bool {
	const both = "a" + "b"
	return s == both
}
