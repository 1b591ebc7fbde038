package graph

import (
	"fmt"
	"sort"
)

// SetCover solves generic weighted set cover over integer-identified
// sets. It backs the OPS-selection phase of AL construction when the
// caller prefers a flat universe/sets formulation over the bipartite
// one, and is reused by the placement package for small exact searches.

// SetID identifies a candidate set in a set-cover instance.
type SetID int

// SetCoverInstance is a universe of elements and a family of candidate
// sets, each a subset of the universe.
type SetCoverInstance struct {
	universe map[int]bool
	sets     map[SetID][]int
}

// NewSetCoverInstance returns an empty instance.
func NewSetCoverInstance() *SetCoverInstance {
	return &SetCoverInstance{
		universe: make(map[int]bool),
		sets:     make(map[SetID][]int),
	}
}

// AddElement inserts an element into the universe.
func (sc *SetCoverInstance) AddElement(e int) { sc.universe[e] = true }

// AddSet registers set id with the given members; members outside the
// universe are added to it.
func (sc *SetCoverInstance) AddSet(id SetID, members []int) {
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	sc.sets[id] = ms
	for _, m := range ms {
		sc.universe[m] = true
	}
}

// SetIDs returns the candidate set IDs in ascending order.
func (sc *SetCoverInstance) SetIDs() []SetID {
	ids := make([]SetID, 0, len(sc.sets))
	for id := range sc.sets {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Members returns a copy of the members of set id.
func (sc *SetCoverInstance) Members(id SetID) []int {
	return append([]int(nil), sc.sets[id]...)
}

// Greedy returns a cover built by the classic max-gain greedy rule, or
// an error if the sets cannot cover the universe. It is CoverMarginal on
// the inverted family: each element is a left vertex whose right
// neighbors are the sets holding it.
func (sc *SetCoverInstance) Greedy() ([]SetID, error) {
	holders := make(map[int][]SetID, len(sc.universe))
	for _, id := range sc.SetIDs() { // ascending, so every list is too
		for _, m := range sc.sets[id] {
			holders[m] = append(holders[m], id)
		}
	}
	if n := len(sc.universe) - len(holders); n > 0 {
		return nil, fmt.Errorf("graph: set cover: %d elements uncoverable", n)
	}
	lefts := make([][]SetID, 0, len(holders))
	for _, ids := range holders {
		lefts = append(lefts, ids)
	}
	return CoverMarginal(lefts, nil, nil)
}

// MaxWeight returns a cover built by descending-weight selection with
// the paper's skip rule (sets contributing no new element are passed
// over), mirroring CoverMaxWeight on the flat formulation.
func (sc *SetCoverInstance) MaxWeight(weight func(SetID) float64) ([]SetID, error) {
	uncovered := make(map[int]bool, len(sc.universe))
	for e := range sc.universe {
		uncovered[e] = true
	}
	ids := sc.SetIDs()
	sort.SliceStable(ids, func(i, j int) bool {
		wi, wj := weight(ids[i]), weight(ids[j])
		if wi != wj {
			return wi > wj
		}
		return ids[i] < ids[j]
	})
	var cover []SetID
	for _, id := range ids {
		if len(uncovered) == 0 {
			break
		}
		gain := false
		for _, m := range sc.sets[id] {
			if uncovered[m] {
				gain = true
				break
			}
		}
		if !gain {
			continue
		}
		cover = append(cover, id)
		for _, m := range sc.sets[id] {
			delete(uncovered, m)
		}
	}
	if len(uncovered) > 0 {
		return nil, fmt.Errorf("graph: set cover: %d elements uncoverable", len(uncovered))
	}
	sort.Slice(cover, func(i, j int) bool { return cover[i] < cover[j] })
	return cover, nil
}

// MaxExactSets bounds the instance size accepted by Exact.
const MaxExactSets = 26

// Exact returns a minimum-cardinality cover via branch and bound,
// refusing instances with more than MaxExactSets sets.
func (sc *SetCoverInstance) Exact() ([]SetID, error) {
	ids := sc.SetIDs()
	if len(ids) > MaxExactSets {
		return nil, fmt.Errorf("graph: exact set cover: %d sets exceeds limit %d", len(ids), MaxExactSets)
	}
	elems := make([]int, 0, len(sc.universe))
	for e := range sc.universe {
		elems = append(elems, e)
	}
	sort.Ints(elems)
	eIdx := make(map[int]int, len(elems))
	for i, e := range elems {
		eIdx[e] = i
	}
	if len(elems) > 64 {
		return nil, fmt.Errorf("graph: exact set cover: universe %d exceeds 64 elements", len(elems))
	}
	var full uint64
	if len(elems) == 64 {
		full = ^uint64(0)
	} else {
		full = (uint64(1) << uint(len(elems))) - 1
	}
	masks := make([]uint64, len(ids))
	for i, id := range ids {
		for _, m := range sc.sets[id] {
			masks[i] |= uint64(1) << uint(eIdx[m])
		}
	}
	seed, err := sc.Greedy()
	if err != nil {
		return nil, err
	}
	bestLen := len(seed)
	best := make([]int, 0, bestLen)
	for _, id := range seed {
		for i, x := range ids {
			if x == id {
				best = append(best, i)
			}
		}
	}
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return popcount(masks[order[i]]) > popcount(masks[order[j]])
	})
	var cur []int
	var search func(pos int, covered uint64)
	search = func(pos int, covered uint64) {
		if covered == full {
			if len(cur) < bestLen {
				bestLen = len(cur)
				best = append(best[:0], cur...)
			}
			return
		}
		if pos == len(order) || len(cur)+1 > bestLen {
			return
		}
		rest := covered
		for _, oi := range order[pos:] {
			rest |= masks[oi]
		}
		if rest != full {
			return
		}
		oi := order[pos]
		if covered|masks[oi] != covered {
			cur = append(cur, oi)
			search(pos+1, covered|masks[oi])
			cur = cur[:len(cur)-1]
		}
		search(pos+1, covered)
	}
	search(0, 0)
	out := make([]SetID, 0, len(best))
	for _, i := range best {
		out = append(out, ids[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Covers reports whether the given sets cover the whole universe.
func (sc *SetCoverInstance) Covers(chosen []SetID) bool {
	covered := make(map[int]bool, len(sc.universe))
	for _, id := range chosen {
		for _, m := range sc.sets[id] {
			covered[m] = true
		}
	}
	return len(covered) == len(sc.universe)
}
