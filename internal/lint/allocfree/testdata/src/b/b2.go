package b

type point struct{ x, y int }

func (point) String() string { return "" }

//softlora:allocfree
func boxing(n int, p point) any {
	consume(n)            // want `allocation in an allocfree function: boxes int into any`
	consumeVariadic(n, p) // want `allocation in an allocfree function: boxes int into any` `allocation in an allocfree function: boxes b\.point into any`
	sink(p)               // want `allocation in an allocfree function: boxes b\.point into b\.stringer`
	var v any
	v = p      // want `allocation in an allocfree function: boxes b\.point into any`
	consume(v) // already an interface: no boxing
	if n > 0 {
		return p // want `allocation in an allocfree function: boxes b\.point into any`
	}
	return nil // untyped nil: no boxing
}
