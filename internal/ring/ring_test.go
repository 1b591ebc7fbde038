package ring

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRingEqualsSliceModel drives rings of several capacities through
// seeded pushes and removals at random positions, checking every step
// against a plain slice that appends and drops its head: the values in
// order, what each push evicts, and that the backing array never
// outgrows the capacity nor keeps a removed value reachable.
func TestRingEqualsSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, capacity := range []int{0, 1, 2, 3, 5, 8, 64} {
		r := New[*int](capacity)
		var model []*int
		for step := 0; step < 4000; step++ {
			if rng.Intn(3) > 0 || len(model) == 0 {
				v := new(int)
				*v = step
				old, evicted := r.Push(v)
				model = append(model, v)
				var want *int
				if len(model) > capacity {
					want, model = model[0], model[1:]
				}
				if evicted != (want != nil) || old != want {
					t.Fatalf("cap %d step %d: Push evicted (%v, %v), want %v", capacity, step, old, evicted, want)
				}
			} else {
				i := rng.Intn(len(model))
				r.Remove(i)
				model = slices.Delete(model, i, i+1)
			}
			if r.Len() != len(model) || !slices.Equal(r.AppendTo(nil), model) {
				t.Fatalf("cap %d step %d: ring holds %v, want %v", capacity, step, r.AppendTo(nil), model)
			}
			for i, v := range model {
				if r.At(i) != v {
					t.Fatalf("cap %d step %d: At(%d) = %v, want %v", capacity, step, i, r.At(i), v)
				}
			}
			if len(r.buf) > capacity {
				t.Fatalf("cap %d: backing array of %d", capacity, len(r.buf))
			}
			held := 0
			for _, v := range r.buf {
				if v != nil {
					held++
				}
			}
			if held != len(model) {
				t.Fatalf("cap %d step %d: backing array references %d values, ring holds %d", capacity, step, held, len(model))
			}
		}
	}
}

// TestRingGrowsOnDemand: a ring holds no more array than its values
// need, doubling from 4 up to its capacity.
func TestRingGrowsOnDemand(t *testing.T) {
	r := New[int](1024)
	if len(r.buf) != 0 {
		t.Fatalf("empty ring holds %d slots", len(r.buf))
	}
	for i := 0; i < 5; i++ {
		r.Push(i)
	}
	if len(r.buf) != 8 {
		t.Fatalf("5 values in %d slots, want 8", len(r.buf))
	}
	for i := 0; i < 2000; i++ {
		r.Push(i)
	}
	if len(r.buf) != 1024 || r.Len() != 1024 || r.At(0) != 2000-1024 {
		t.Fatalf("full ring: %d slots, %d values, oldest %d", len(r.buf), r.Len(), r.At(0))
	}
}
