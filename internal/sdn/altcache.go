package sdn

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/alvc/alvc/internal/graph"
	"github.com/alvc/alvc/internal/topology"
)

// altCache memoizes standby-search answers — one path per searched leg
// of AppendRouteAvoiding, PathAlternatives' k paths — keyed by the
// fabric state they were searched under: the routing snapshot's
// structural generation and the content digest of its liveness overlay
// (topology.Snapshot.LiveDigest). A standby is planned per segment
// between a chain's stops, and the same (src, dst, pool, avoid set)
// questions come back again and again: a chain re-provisioned over the
// same machines, a move that re-plans the standby it just had, refresh
// tasks, re-protect retries after a busy skip — and, because the key is
// the live state's content and not a count of its changes, a failure
// state that recurs: a link flap returns the fabric to the digest it
// had, a tray cut that repeats meets the answers its last cut left.
//
// Correctness rests on what an entry is stored under: the digest its own
// search read under the overlay's read lock (AppendPathAvoiding,
// KShortestPaths report it), never one read before or after, so an
// entry is exact for the state it names whatever patched the overlay
// around the search. A lookup reads the digest of now, lock-free, and
// finds only entries searched under that state. Liveness never
// invalidates an entry; the new state simply misses. A structural
// change (new snapshot) resets the memo.
//
// Entries are compact and pointer-free, so the collector never scans
// them: a 64-bit hash of the whole question in a small open-addressed
// index, the endpoints checked on a hit, and the answer in a shared
// int32 arena, one word a hop — the link it crosses, from which a hit
// reads the next node and hands the link to a caller that wants the
// route's links (a standby records them). A route with a VM's linkless
// hop to its host is not stored: VM churn moves neither the structural
// generation nor the live digest, so the key could not tell where the
// VM sits. When the memo is full it first evicts the entries of other
// live states, then stops storing until the state moves — a one-state
// workload never churns.
//
// Errors are never cached: a failed search is cheap relative to its
// retry policy, and its cause (a partitioned pair, an empty pool) may
// heal.
type altCache struct {
	mu sync.Mutex
	// gen is the structural generation every entry was searched at.
	gen     uint64
	entries []altEntry
	// slots indexes entries by hash, open-addressed and linearly probed:
	// entry index + 1, 0 for free. Its length is a power of two, at least
	// twice cap(entries).
	slots []int32
	// arena holds the answers back to back in entry order: entry i's is
	// arena[entries[i-1].end:entries[i].end]. An answer is its path's
	// hops from src (appendHops); a PathAlternatives answer is its paths'
	// joined by pathSep.
	arena []int32
	// fullAt is the live state (altEntry.live) at which the memo last
	// filled with nothing of another state to evict; stores stop until
	// the state moves. full says whether fullAt is set.
	fullAt uint32
	full   bool

	hits   atomic.Int64
	misses atomic.Int64

	// questions, non-nil only while a test audits the memo, keeps each
	// stored entry's question by hash so it can be asked afresh.
	questions map[uint64]altQuestion
}

// altEntry is one memoized answer: 24 bytes, no pointers.
type altEntry struct {
	hash     uint64 // altQuestion.hash: the question and the live state
	src, dst int32  // checked on a hit: the hash is not trusted alone
	end      int32  // the answer ends at arena[end]
	live     uint32 // the live digest's low half: what eviction sorts by
}

// pathSep separates the paths of a PathAlternatives answer in the arena;
// a hop is never 0 (appendHops).
const pathSep = 0

// appendHops appends to arena the hops of path, a route from path[0]:
// per hop the ID of the link it crosses (topology.HopLink), which is
// positive. ok is false, and arena comes back as it was, when a hop
// crosses no link.
func appendHops(arena []int32, topo *topology.Topology, path []topology.NodeID) (_ []int32, ok bool) {
	start := len(arena)
	for i := 1; i < len(path); i++ {
		l, ok := topo.HopLink(path[i-1], path[i])
		if !ok || l == 0 {
			return arena[:start], false
		}
		arena = append(arena, int32(l))
	}
	return arena, true
}

// decodeHops appends to buf the nodes that hops reach from src and, when
// links is not nil, to *links the links they cross. The hops were stored
// at the topology's current structural generation, so every link still
// joins the nodes it joined then.
func decodeHops(buf []topology.NodeID, links *[]topology.LinkID, topo *topology.Topology, src topology.NodeID, hops []int32) []topology.NodeID {
	at := src
	for _, h := range hops {
		l := topo.Link(topology.LinkID(h))
		if at == l.From {
			at = l.To
		} else {
			at = l.From
		}
		if links != nil {
			*links = append(*links, l.ID)
		}
		buf = append(buf, at)
	}
	return buf
}

// altCacheMaxEntries bounds the per-controller memo.
const altCacheMaxEntries = 4096

// altQuestion is what a route's legs share: every part of the question
// but the endpoints and the live state, hashed once per route into base.
// k is 0 for an avoiding search, which PathAlternatives never asks.
type altQuestion struct {
	base  uint64
	k     int
	pool  topology.Pool
	avoid topology.Avoid
}

func newAltQuestion(k int, pool topology.Pool, avoid topology.Avoid) altQuestion {
	h := graph.Mix64(uint64(k))
	for _, part := range []uint64{pool.Digest(), sequenceDigest(avoid.Nodes), sequenceDigest(avoid.Links), uint64(avoid.Spread)} {
		h = graph.Mix64(h ^ part)
	}
	return altQuestion{base: h, k: k, pool: pool, avoid: avoid}
}

// hash keys one leg of the question under one live state.
func (q *altQuestion) hash(src, dst topology.NodeID, live uint64) uint64 {
	h := graph.Mix64(q.base ^ uint64(src)<<32 ^ uint64(uint32(dst)))
	return graph.Mix64(h ^ live)
}

// sequenceDigest hashes a list in order (FNV-1a over whole elements).
func sequenceDigest[T ~int](ids []T) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		h = (h ^ uint64(id)) * 1099511628211
	}
	return h
}

// at brings the memo to structural generation gen and reports whether
// it is there: a newer generation resets it, an older one (a search on a
// superseded snapshot) must neither read nor write it. Caller holds mu.
func (ac *altCache) at(gen uint64) bool {
	if gen == ac.gen {
		return true
	}
	if gen < ac.gen {
		return false
	}
	ac.gen = gen
	ac.resetLocked()
	return true
}

func (ac *altCache) resetLocked() {
	ac.entries, ac.arena = ac.entries[:0], ac.arena[:0]
	clear(ac.slots)
	ac.full = false
	if ac.questions != nil {
		clear(ac.questions)
	}
}

// find returns the index of the entry for (h, src, dst), or -1. Caller
// holds mu.
func (ac *altCache) find(h uint64, src, dst int32) int {
	if len(ac.slots) == 0 {
		return -1
	}
	mask := uint64(len(ac.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := ac.slots[i]
		if s == 0 {
			return -1
		}
		if e := &ac.entries[s-1]; e.hash == h && e.src == src && e.dst == dst {
			return int(s - 1)
		}
	}
}

// answer returns entry i's stretch of the arena. Caller holds mu.
func (ac *altCache) answer(i int) []int32 {
	start := int32(0)
	if i > 0 {
		start = ac.entries[i-1].end
	}
	return ac.arena[start:ac.entries[i].end]
}

// appendLeg appends the memoized answer to one leg — its nodes from src
// to buf, the links it crosses to links — if the memo holds one for this
// structural generation and live state.
func (ac *altCache) appendLeg(buf []topology.NodeID, links []topology.LinkID, topo *topology.Topology, gen uint64, q *altQuestion, src, dst topology.NodeID, live uint64) ([]topology.NodeID, []topology.LinkID, bool) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if !ac.at(gen) {
		return buf, links, false
	}
	i := ac.find(q.hash(src, dst, live), int32(src), int32(dst))
	if i < 0 {
		return buf, links, false
	}
	buf = decodeHops(append(buf, src), &links, topo, src, ac.answer(i))
	return buf, links, true
}

// paths returns a memoized PathAlternatives answer as fresh slices.
func (ac *altCache) paths(topo *topology.Topology, gen uint64, q *altQuestion, src, dst topology.NodeID, live uint64) ([][]topology.NodeID, bool) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if !ac.at(gen) {
		return nil, false
	}
	i := ac.find(q.hash(src, dst, live), int32(src), int32(dst))
	if i < 0 {
		return nil, false
	}
	answer := ac.answer(i)
	paths := 1
	for _, h := range answer {
		if h == pathSep {
			paths++
		}
	}
	// One array for every path's nodes, one for the paths.
	flat := make([]topology.NodeID, 0, len(answer)+1)
	out := make([][]topology.NodeID, 0, paths)
	for range paths {
		hops := answer
		if j := slices.Index(answer, pathSep); j >= 0 {
			hops, answer = answer[:j], answer[j+1:]
		}
		start := len(flat)
		flat = decodeHops(append(flat, src), nil, topo, src, hops)
		out = append(out, flat[start:len(flat):len(flat)])
	}
	return out, true
}

// put stores an answer searched at structural generation gen under live
// state live — the digest the search itself read.
func (ac *altCache) put(topo *topology.Topology, gen uint64, q *altQuestion, src, dst topology.NodeID, live uint64, paths ...[]topology.NodeID) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if !ac.at(gen) {
		return
	}
	h := q.hash(src, dst, live)
	if ac.find(h, int32(src), int32(dst)) >= 0 {
		return // a concurrent planner stored it first
	}
	if !ac.room(uint32(live)) {
		return
	}
	start := len(ac.arena)
	for i, p := range paths {
		if i > 0 {
			ac.arena = append(ac.arena, pathSep)
		}
		var ok bool
		if ac.arena, ok = appendHops(ac.arena, topo, p); !ok {
			ac.arena = ac.arena[:start]
			return
		}
	}
	ac.entries = append(ac.entries, altEntry{hash: h, src: int32(src), dst: int32(dst), end: int32(len(ac.arena)), live: uint32(live)})
	ac.index(len(ac.entries) - 1)
	if ac.questions != nil {
		stored := *q
		stored.pool = topology.NewPool(slices.Clone(q.pool.OPS))
		stored.avoid.Nodes, stored.avoid.Links = slices.Clone(q.avoid.Nodes), slices.Clone(q.avoid.Links)
		ac.questions[h] = stored
	}
}

// room makes space for one more entry under live state live, growing
// the memo up to its cap and, at the cap, evicting the entries of other
// states; it reports false when the memo is full of this state's.
// Caller holds mu.
func (ac *altCache) room(live uint32) bool {
	if len(ac.entries) < cap(ac.entries) {
		return true
	}
	if n := cap(ac.entries); n < altCacheMaxEntries {
		grown := make([]altEntry, n, min(max(2*n, 64), altCacheMaxEntries))
		copy(grown, ac.entries)
		ac.entries = grown
		ac.slots = make([]int32, 2*cap(grown))
		ac.reindex()
		return true
	}
	if ac.full && ac.fullAt == live {
		return false
	}
	// Compact in place: entries and answers only ever move down.
	kept, from, end := 0, int32(0), int32(0)
	for _, e := range ac.entries {
		answer := ac.arena[from:e.end]
		from = e.end
		if e.live != live {
			continue
		}
		end += int32(copy(ac.arena[end:], answer))
		e.end = end
		ac.entries[kept] = e
		kept++
	}
	ac.entries, ac.arena = ac.entries[:kept], ac.arena[:end]
	clear(ac.slots)
	ac.reindex()
	ac.full, ac.fullAt = kept == altCacheMaxEntries, live
	return !ac.full
}

// reindex fills the cleared slots from every entry. Caller holds mu.
func (ac *altCache) reindex() {
	for i := range ac.entries {
		ac.index(i)
	}
}

// index puts entry i into the first free slot of its probe sequence.
func (ac *altCache) index(i int) {
	mask := uint64(len(ac.slots) - 1)
	for s := ac.entries[i].hash & mask; ; s = (s + 1) & mask {
		if ac.slots[s] == 0 {
			ac.slots[s] = int32(i + 1)
			return
		}
	}
}

// invalidate drops every cached entry regardless of generation.
func (ac *altCache) invalidate() {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	ac.resetLocked()
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

// AlternativesCacheStats returns the memo's hit and miss counts since
// construction. With Yen off the production path, their sum is the
// number of standby segment searches asked of this controller — the legs
// that need a search: a VM↔host leg is answered without one and counts
// as neither.
func (c *Controller) AlternativesCacheStats() (hits, misses int64) {
	return c.alts.hits.Load(), c.alts.misses.Load()
}
