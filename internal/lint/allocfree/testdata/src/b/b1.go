// Package b exercises the allocfree analyzer's interface-boxing checks
// across files: the sink signatures live here, the annotated function in
// b2.go.
package b

func consume(v any)             {}
func consumeVariadic(vs ...any) {}

type stringer interface{ String() string }

func sink(s stringer) {}
