// Package spare keeps scratch for reuse by callers that mostly run one at
// a time, as the control plane's fan-outs do: each runs on its caller.
package spare

import (
	"sync"
	"sync/atomic"
)

// Pool is a sync.Pool of *T with one slot in front of it; the zero Pool
// is ready to use. A caller running alone takes and returns the slot's
// object, so it finds it again whichever P it runs on and however many
// collections ran since: a sync.Pool keeps a lone object in the per-P
// slot of the P that put it, which a collection moves out of reach of
// the other Ps. The sync.Pool serves the callers that overlap. The
// slot's object stays live, so a Pool suits objects small enough to keep
// for good.
type Pool[T any] struct {
	slot atomic.Pointer[T]
	pool sync.Pool
}

// Get takes the slot's object, else one from the pool, else a new zero T.
func (p *Pool[T]) Get() *T {
	if x := p.slot.Swap(nil); x != nil {
		return x
	}
	if x, ok := p.pool.Get().(*T); ok {
		return x
	}
	return new(T)
}

// Put keeps x in the slot, or in the pool when the slot is taken.
func (p *Pool[T]) Put(x *T) {
	if !p.slot.CompareAndSwap(nil, x) {
		p.pool.Put(x)
	}
}
