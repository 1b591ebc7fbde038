package sdn

import (
	"sync"
	"sync/atomic"

	"github.com/alvc/alvc/internal/topology"
)

// altCache memoizes standby-search answers — one path per leg of
// AppendRouteAvoiding, PathAlternatives' k paths — across the window where they stay
// valid: one (structural generation, live-mask version) epoch. A
// standby is planned per segment between a chain's stops, and the same
// (src, dst, pool, avoid set) questions come back again and again: a
// chain re-provisioned over the same machines, a move that re-plans the
// standby it just had, refresh tasks landing in one epoch, re-protect
// retries after a busy skip. The cache turns those into map lookups.
//
// Correctness rests on the generation pair: a structural mutation
// invalidates the routing snapshot (structGen moves), a liveness
// transition patches the snapshot's overlay in place (liveGen moves,
// bumped *after* the patch lands). Either movement makes every cached
// answer stale, so the whole map is discarded on a pair mismatch —
// there is no per-entry staleness. Entries are stored only when the
// pair observed before the search still matches after it, so a search
// racing a mutation can never publish a result under the wrong epoch.
//
// Errors are never cached: a failed search is cheap relative to its
// retry policy and its cause (a partitioned pair, an empty pool) may
// heal without a generation bump observable here.
type altCache struct {
	mu        sync.Mutex
	structGen uint64
	liveGen   uint64
	entries   map[altKey][][]topology.NodeID

	hits   atomic.Int64
	misses atomic.Int64
}

// altKey identifies one search problem within an epoch. The sets are
// folded to digests: the restriction order-independently (callers that
// pass the same pool get the same key), the avoided nodes and links in
// the order given (a chain lists its primary the same way every time).
// k is 0 for an avoiding search, which PathAlternatives never asks.
type altKey struct {
	src, dst   topology.NodeID
	k          int
	digest     uint64
	avoidNodes uint64
	avoidLinks uint64
	spread     topology.NodeID
}

// altCacheMaxEntries bounds the per-controller memo. When full, new
// results are computed but not stored; the map resets wholesale at the
// next generation movement anyway, so a cap beats an eviction policy.
const altCacheMaxEntries = 4096

// restrictionDigest hashes an OPS restriction set to a stable 64-bit
// key component. nil (no restriction) and the empty set are
// distinguishable from any real pool; only nodes mapped to true
// participate, matching how searches consume the set. Members are mixed
// one by one and summed, so the map's iteration order does not matter
// and nothing is sorted or allocated.
func restrictionDigest(restrictOPS map[topology.NodeID]bool) uint64 {
	if restrictOPS == nil {
		return 0
	}
	h := uint64(1) // non-nil marker: {} hashes differently from nil
	for n, ok := range restrictOPS {
		if ok {
			h += mix64(uint64(n))
		}
	}
	return h
}

// sequenceDigest hashes a list in order (FNV-1a over whole elements).
func sequenceDigest[T ~int](ids []T) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		h = (h ^ uint64(id)) * 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer: consecutive IDs land far apart, so
// a sum of mixed members identifies the set.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// get returns the cached alternatives for the key if the cache is
// coherent with the given generation pair. A pair mismatch discards
// every entry (they were all computed against a superseded routing
// state) before reporting a miss.
func (ac *altCache) get(key altKey, structGen, liveGen uint64) ([][]topology.NodeID, bool) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if ac.structGen != structGen || ac.liveGen != liveGen {
		ac.structGen, ac.liveGen = structGen, liveGen
		ac.entries = nil
		return nil, false
	}
	out, ok := ac.entries[key]
	return out, ok
}

// put stores a freshly computed result, but only if the generation pair
// observed before the search is still the cache's current pair — a
// concurrent mutation between get and put voids the store rather than
// poisoning the new epoch.
func (ac *altCache) put(key altKey, structGen, liveGen uint64, paths [][]topology.NodeID) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if ac.structGen != structGen || ac.liveGen != liveGen {
		return
	}
	if ac.entries == nil {
		ac.entries = make(map[altKey][][]topology.NodeID)
	}
	if len(ac.entries) >= altCacheMaxEntries {
		return
	}
	ac.entries[key] = paths
}

// invalidate drops every cached entry regardless of generation.
func (ac *altCache) invalidate() {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	ac.entries = nil
}

// SetAlternativesCache enables or disables the memo on this controller
// for both kinds of search. Intended for construction time (measuring
// the searches cold); disabling also drops any cached entries.
func (c *Controller) SetAlternativesCache(enabled bool) {
	c.altCacheOff.Store(!enabled)
	if !enabled {
		c.alts.invalidate()
	}
}

// InvalidateAlternatives drops every memoized answer. The
// generation pair already invalidates on any topology movement; this is
// the explicit escape hatch for callers that mutated state the
// controller cannot see.
func (c *Controller) InvalidateAlternatives() { c.alts.invalidate() }

// AlternativesCacheStats returns the memo's hit and miss counts since
// construction. With Yen off the production path, their sum is the
// number of standby segment searches asked of this controller.
func (c *Controller) AlternativesCacheStats() (hits, misses int64) {
	return c.alts.hits.Load(), c.alts.misses.Load()
}
