// Package lib holds one function of each kind the reachability analyzer
// must tell apart.
package lib

// Live is called by the program.
func Live() int { return 1 }

// Dead is called by nothing.
func Dead() int { return deadHelper() }

// deadHelper is called only by Dead.
func deadHelper() int { return 2 }

// Kept is unreachable and allowlisted.
func Kept() int { return 3 }

// Stale is allowlisted, yet the program calls it.
func Stale() int { return 4 }

// BenchOnly is called only from the benchmark.
func BenchOnly() int { return 5 }

// Shape is used by the program only through the interface.
type Shape interface{ Area() int }

// Square satisfies Shape.
type Square struct{ Side int }

// NewSquare returns a Square as a Shape.
func NewSquare(side int) Shape { return Square{Side: side} }

// Area satisfies Shape; nothing calls it on a Square.
func (s Square) Area() int { return s.Side * s.Side }

// Counter's Tick is used as a method value.
type Counter struct{ n int }

// Tick counts one.
func (c *Counter) Tick() { c.n++ }

// Box is generic; the program calls Get on an instantiation.
type Box[T any] struct{ v T }

// Get returns the boxed value.
func (b Box[T]) Get() T { return b.v }

// Registry is built by a package-level initializer.
var Registry = map[string]func() int{"init": fromVar}

// fromVar is referenced only from Registry's initializer.
func fromVar() int { return 6 }

// Ref's methods are allowlisted by a type pattern.
type Ref struct{}

// Unused is unreachable and covered by "internal/lib.Ref.*".
func (Ref) Unused() int { return 7 }
