package spare

import (
	"runtime"
	"testing"
)

// TestLoneCallerKeepsItsObject: a caller that takes and returns one
// object at a time gets the same object back, across two collections
// (which empty a sync.Pool) and on whichever P, without allocating; a
// second caller overlapping the first gets an object of its own, and
// both go back.
func TestLoneCallerKeepsItsObject(t *testing.T) {
	var p Pool[[]int]
	x := p.Get()
	p.Put(x)
	runtime.GC()
	runtime.GC()
	if y := p.Get(); y != x {
		t.Fatal("the lone caller's object did not survive two collections")
	}
	p.Put(x)
	if n := testing.AllocsPerRun(100, func() { p.Put(p.Get()) }); n != 0 {
		t.Fatalf("a Get and a Put allocate %.0f times, want 0", n)
	}
	a, b := p.Get(), p.Get()
	if a != x || b == a {
		t.Fatal("two overlapping callers share an object")
	}
	p.Put(a)
	p.Put(b)
	if p.Get() != a {
		t.Fatal("the first object put back is not in the slot")
	}
}
