package graph

import (
	"sync"
	"sync/atomic"
)

// LiveMask is a durable vertex/arc down-mask over one Frozen graph —
// the Yen ban-set masking promoted to a persistent layer. The frozen
// CSR arrays stay immutable and shared; liveness changes flip bits here
// instead of invalidating the snapshot, so a failure (or recovery)
// costs O(affected arcs) while every search under the mask sees it
// immediately.
//
// Writers take the write lock per patch; each search holds the read
// lock for its whole run, so a search observes either all or none of a
// batch patch and the race detector stays quiet under concurrent
// patch-vs-search traffic.
//
// The mask also keeps a digest of what it holds down: the XOR of Mix64
// over every down vertex and arc (Digest). It names the fabric's live
// state by content, not by how it was reached — a flap that goes down
// and back up returns the digest to what it was — so answers computed
// under one state can be keyed by it and found again when the state
// recurs. All up is 0.
type LiveMask struct {
	mu         sync.RWMutex
	downVertex []bool // by dense vertex index (Frozen.IndexOf)
	downArc    []bool // by CSR arc position (Frozen.ArcTags order)
	// digest changes under mu's write lock, one flip at a time; it is
	// atomic so that Digest needs no lock.
	digest atomic.Uint64
}

// NewLiveMask returns an all-up mask sized for f.
func (f *Frozen) NewLiveMask() *LiveMask {
	return &LiveMask{
		downVertex: make([]bool, len(f.ids)),
		downArc:    make([]bool, len(f.targets)),
	}
}

// Patch applies a whole batch of vertex and arc transitions under one
// lock acquisition — the batch-mutator fast path: in-flight searches
// finish first, then the entire storm lands atomically. It keeps neither
// argument, so a caller may patch from scratch it reuses.
func (m *LiveMask) Patch(vertexDown map[int32]bool, arcs []int32, arcDown bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for idx, down := range vertexDown {
		m.setVertexLocked(idx, down)
	}
	for _, p := range arcs {
		m.setArcLocked(p, arcDown)
	}
}

func (m *LiveMask) setVertexLocked(idx int32, down bool) {
	if int(idx) >= len(m.downVertex) || m.downVertex[idx] == down {
		return
	}
	m.downVertex[idx] = down
	m.flipLocked(uint64(idx) << 1)
}

func (m *LiveMask) setArcLocked(p int32, down bool) {
	if int(p) >= len(m.downArc) || m.downArc[p] == down {
		return
	}
	m.downArc[p] = down
	m.flipLocked(uint64(p)<<1 | 1)
}

// flipLocked folds one transition into the digest; the element is a
// vertex index or an arc position shifted left, tagged by its low bit,
// so the two kinds never mix to the same value.
func (m *LiveMask) flipLocked(element uint64) {
	m.digest.Store(m.digest.Load() ^ Mix64(element))
}

// Digest returns the content digest of what the mask holds down, read
// without a lock. A search reports the digest it read under its read
// lock — the state it actually ran under — while a caller looking up an
// answer for "now" reads this.
func (m *LiveMask) Digest() uint64 { return m.digest.Load() }

// Mix64 is the splitmix64 finalizer: consecutive integers land far
// apart, so a sum or XOR of mixed members identifies the set.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
