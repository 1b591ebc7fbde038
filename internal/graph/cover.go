package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
)

// WeightFunc assigns a selection weight to a right vertex. The paper's
// AL builder weighs a ToR by its incoming connections (attached VMs of
// the cluster) plus outgoing connections (OPS uplinks); see §III-C:
// "select the ToRs that cover all the VMs using maximum incoming and
// outgoing connections".
type WeightFunc func(right VertexID) float64

// ErrUncoverable is reported (wrapped) when some left vertex has no
// available right neighbor, so no cover exists.
var ErrUncoverable = fmt.Errorf("graph: cover: left vertex cannot be covered")

// CoverMaxWeight selects right vertices in descending weight order until
// every left vertex is covered, skipping right vertices none of whose
// left neighbors remain uncovered. This is the paper's §III-C
// "maximum-weighted algorithm": ToR 1 (weight 4 in + 2 out) is taken
// first, ToR 2 is skipped because its machines are already covered by
// ToR 1, then ToR 3 completes the cover.
//
// Ties are broken toward the lower vertex ID. The returned cover is
// sorted ascending.
func CoverMaxWeight(b *Bipartite, weight WeightFunc) ([]VertexID, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("cover max-weight: %w", err)
	}
	uncovered := make(map[VertexID]bool, b.LeftCount())
	for _, l := range b.Lefts() {
		uncovered[l] = true
	}
	// Rights sorted by descending weight, ascending ID on ties.
	rights := b.Rights()
	sort.SliceStable(rights, func(i, j int) bool {
		wi, wj := weight(rights[i]), weight(rights[j])
		if wi != wj {
			return wi > wj
		}
		return rights[i] < rights[j]
	})
	var cover []VertexID
	for _, r := range rights {
		if len(uncovered) == 0 {
			break
		}
		covers := false
		for _, l := range b.LeftNeighbors(r) {
			if uncovered[l] {
				covers = true
				break
			}
		}
		if !covers {
			continue // the paper's "already connected by ToR 1" skip
		}
		cover = append(cover, r)
		for _, l := range b.LeftNeighbors(r) {
			delete(uncovered, l)
		}
	}
	if len(uncovered) > 0 {
		return nil, fmt.Errorf("%w: %d left vertices remain", ErrUncoverable, len(uncovered))
	}
	sort.Slice(cover, func(i, j int) bool { return cover[i] < cover[j] })
	return cover, nil
}

// UncoverableError is CoverMarginal's failure: the left at position Left
// of its input has no admitted right neighbor, so no cover exists. It
// unwraps to ErrUncoverable.
type UncoverableError struct{ Left int }

func (e *UncoverableError) Error() string {
	return fmt.Sprintf("%v: left #%d has no admitted right neighbor", ErrUncoverable, e.Left)
}

func (e *UncoverableError) Unwrap() error { return ErrUncoverable }

// CoverMarginal is the marginal-gain reading of the paper's rule, and
// the one implementation of it: each round it selects the right vertex
// with the most still-uncovered left neighbors (the "incoming
// connections" that matter — a machine already covered no longer counts,
// which is exactly why the paper's walk-through skips ToR 2), breaking
// ties by the larger tie value (outgoing connections) and then by the
// lower vertex ID. With a nil tie it is classic greedy set cover.
//
// The instance is given densely. lefts[i] is the ascending, duplicate-free
// list of right neighbors of the i-th left vertex; the slices are only
// read, so callers pass cached adjacency as is. admit, when non-nil,
// masks the rights by vertex ID: r takes part iff admit[r] (IDs beyond
// the mask do not). Gains live in one counter array over the span of
// right IDs and are decremented as lefts become covered, so a round
// costs one pass over the candidates and nothing is copied or hashed;
// the working arrays are pooled, so a call allocates its result. The
// returned cover is sorted ascending.
func CoverMarginal[V ~int](lefts [][]V, admit []bool, tie func(V) float64) ([]V, error) {
	admitted := func(r V) bool {
		return admit == nil || (r >= 0 && int(r) < len(admit) && admit[r])
	}
	// The span [lo, hi] of right IDs sizes the counter array.
	var lo, hi V
	span := 0
	for _, ns := range lefts {
		if len(ns) == 0 {
			continue
		}
		if span == 0 || ns[0] < lo {
			lo = ns[0]
		}
		if span == 0 || ns[len(ns)-1] > hi {
			hi = ns[len(ns)-1]
		}
		span = int(hi-lo) + 1
	}
	s := coverScratchPool.Get().(*coverScratch)
	defer coverScratchPool.Put(s)
	s.gain = slices.Grow(s.gain[:0], span)[:span]
	s.covered = slices.Grow(s.covered[:0], len(lefts))[:len(lefts)]
	s.cands = s.cands[:0]
	clear(s.gain)
	clear(s.covered)
	gain, covered := s.gain, s.covered
	for i, ns := range lefts {
		coverable := false
		for _, r := range ns {
			if !admitted(r) {
				continue
			}
			if gain[r-lo] == 0 {
				s.cands = append(s.cands, int(r))
			}
			gain[r-lo]++
			coverable = true
		}
		if !coverable {
			return nil, &UncoverableError{Left: i}
		}
	}
	slices.Sort(s.cands)
	var cover []V
	for remaining := len(lefts); remaining > 0; {
		var best V
		bestGain, bestTie := int32(0), 0.0
		for _, c := range s.cands {
			r := V(c)
			g := gain[r-lo]
			if g == 0 || g < bestGain {
				continue
			}
			t := 0.0
			if tie != nil {
				t = tie(r)
			}
			if g > bestGain || t > bestTie {
				best, bestGain, bestTie = r, g, t
			}
		}
		cover = append(cover, best)
		for i, ns := range lefts {
			if covered[i] {
				continue
			}
			if _, ok := slices.BinarySearch(ns, best); !ok {
				continue
			}
			covered[i] = true
			remaining--
			for _, r := range ns {
				if admitted(r) {
					gain[r-lo]--
				}
			}
		}
	}
	slices.Sort(cover)
	return cover, nil
}

// coverScratch is CoverMarginal's working state: gain and cands grow to
// the span of right IDs, the whole OPS pool when an AL is built.
type coverScratch struct {
	gain    []int32
	cands   []int
	covered []bool
}

var coverScratchPool = sync.Pool{New: func() any { return new(coverScratch) }}

// coverBipartite runs CoverMarginal over b's own adjacency.
func coverBipartite(b *Bipartite, tie WeightFunc) ([]VertexID, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	lefts := make([][]VertexID, 0, len(b.leftAdj))
	for _, l := range b.Lefts() {
		lefts = append(lefts, b.leftAdj[l])
	}
	return CoverMarginal(lefts, nil, tie)
}

// CoverMaxWeightMarginal is CoverMarginal on a Bipartite: marginal gain
// first, the supplied secondary weight (outgoing connections) on ties,
// then the lower vertex ID. The static variant above is kept for the E4
// ablation, where it measurably loses to random selection on
// ring-structured uplink windows.
func CoverMaxWeightMarginal(b *Bipartite, tieBreak WeightFunc) ([]VertexID, error) {
	cover, err := coverBipartite(b, tieBreak)
	if err != nil {
		return nil, fmt.Errorf("cover max-weight marginal: %w", err)
	}
	return cover, nil
}

// CoverGreedy is the classic greedy set-cover heuristic: repeatedly pick
// the right vertex covering the most still-uncovered left vertices
// (ln(n)-approximate) — CoverMarginal without a tie-break. It serves as
// the quality baseline the paper's max-weight rule is compared against
// in experiment E4.
func CoverGreedy(b *Bipartite) ([]VertexID, error) {
	cover, err := coverBipartite(b, nil)
	if err != nil {
		return nil, fmt.Errorf("cover greedy: %w", err)
	}
	return cover, nil
}

// CoverRandom selects right vertices uniformly at random (without
// replacement) until all left vertices are covered. It reproduces the
// random-selection AL construction of the authors' earlier work [15],
// the baseline this paper's algorithm improves on.
func CoverRandom(b *Bipartite, rng *rand.Rand) ([]VertexID, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("cover random: %w", err)
	}
	if rng == nil {
		return nil, fmt.Errorf("cover random: nil rng")
	}
	uncovered := make(map[VertexID]bool, b.LeftCount())
	for _, l := range b.Lefts() {
		uncovered[l] = true
	}
	rights := b.Rights()
	rng.Shuffle(len(rights), func(i, j int) { rights[i], rights[j] = rights[j], rights[i] })
	var cover []VertexID
	for _, r := range rights {
		if len(uncovered) == 0 {
			break
		}
		covers := false
		for _, l := range b.LeftNeighbors(r) {
			if uncovered[l] {
				covers = true
				break
			}
		}
		if !covers {
			continue
		}
		cover = append(cover, r)
		for _, l := range b.LeftNeighbors(r) {
			delete(uncovered, l)
		}
	}
	if len(uncovered) > 0 {
		return nil, fmt.Errorf("%w: %d left vertices remain", ErrUncoverable, len(uncovered))
	}
	sort.Slice(cover, func(i, j int) bool { return cover[i] < cover[j] })
	return cover, nil
}

// MaxExactCoverRights bounds the instance size accepted by CoverExact;
// beyond it the branch-and-bound search space is too large.
const MaxExactCoverRights = 30

// CoverExact returns a minimum-cardinality cover by branch and bound.
// It is exponential in the number of right vertices and refuses
// instances with more than MaxExactCoverRights rights; it exists as
// ground truth for tests and for the optimality-gap measurements of
// experiment E4.
func CoverExact(b *Bipartite) ([]VertexID, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("cover exact: %w", err)
	}
	rights := b.Rights()
	if len(rights) > MaxExactCoverRights {
		return nil, fmt.Errorf("cover exact: %d right vertices exceeds limit %d", len(rights), MaxExactCoverRights)
	}
	lefts := b.Lefts()
	leftIdx := make(map[VertexID]int, len(lefts))
	for i, l := range lefts {
		leftIdx[l] = i
	}
	if len(lefts) > 64 {
		return coverExactBig(b, rights, lefts)
	}
	full := uint64(0)
	if len(lefts) == 64 {
		full = ^uint64(0)
	} else {
		full = (uint64(1) << uint(len(lefts))) - 1
	}
	masks := make([]uint64, len(rights))
	for i, r := range rights {
		for _, l := range b.LeftNeighbors(r) {
			masks[i] |= uint64(1) << uint(leftIdx[l])
		}
	}
	// Order rights by descending coverage for stronger pruning.
	order := make([]int, len(rights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return popcount(masks[order[i]]) > popcount(masks[order[j]])
	})
	// Greedy solution seeds the upper bound.
	seed, err := CoverGreedy(b)
	if err != nil {
		return nil, err
	}
	best := make([]int, 0, len(seed))
	for _, r := range seed {
		for i, rr := range rights {
			if rr == r {
				best = append(best, i)
			}
		}
	}
	bestLen := len(best)
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
		if len(cur)+1 >= bestLen && covered != full {
			// Even one more pick cannot beat the incumbent unless it
			// finishes the cover; check quickly below.
			finished := false
			for _, oi := range order[pos:] {
				if covered|masks[oi] == full && len(cur)+1 < bestLen {
					finished = true
					break
				}
			}
			if !finished {
				return
			}
		}
		if pos == len(order) {
			return
		}
		// Bound: remaining rights must be able to cover what's missing.
		rest := covered
		for _, oi := range order[pos:] {
			rest |= masks[oi]
		}
		if rest != full {
			return
		}
		oi := order[pos]
		if covered|masks[oi] != covered { // taking oi gains something
			cur = append(cur, oi)
			search(pos+1, covered|masks[oi])
			cur = cur[:len(cur)-1]
		}
		search(pos+1, covered)
	}
	search(0, 0)
	out := make([]VertexID, 0, len(best))
	for _, i := range best {
		out = append(out, rights[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// coverExactBig handles >64 left vertices with map-based sets. Slower,
// but instances that large combined with ≤30 rights are rare.
func coverExactBig(b *Bipartite, rights, lefts []VertexID) ([]VertexID, error) {
	seed, err := CoverGreedy(b)
	if err != nil {
		return nil, err
	}
	best := append([]VertexID(nil), seed...)
	var cur []VertexID
	var search func(pos int, covered map[VertexID]bool)
	search = func(pos int, covered map[VertexID]bool) {
		if len(covered) == len(lefts) {
			if len(cur) < len(best) {
				best = append(best[:0], cur...)
			}
			return
		}
		if pos == len(rights) || len(cur)+1 >= len(best) {
			return
		}
		r := rights[pos]
		gain := false
		for _, l := range b.LeftNeighbors(r) {
			if !covered[l] {
				gain = true
				break
			}
		}
		if gain {
			added := make([]VertexID, 0, 4)
			for _, l := range b.LeftNeighbors(r) {
				if !covered[l] {
					covered[l] = true
					added = append(added, l)
				}
			}
			cur = append(cur, r)
			search(pos+1, covered)
			cur = cur[:len(cur)-1]
			for _, l := range added {
				delete(covered, l)
			}
		}
		search(pos+1, covered)
	}
	search(0, make(map[VertexID]bool, len(lefts)))
	sort.Slice(best, func(i, j int) bool { return best[i] < best[j] })
	return best, nil
}

// VerifyCover reports whether rights covers every left vertex of b.
func VerifyCover(b *Bipartite, rights []VertexID) bool {
	chosen := make(map[VertexID]bool, len(rights))
	for _, r := range rights {
		chosen[r] = true
	}
	for _, l := range b.Lefts() {
		ok := false
		for _, r := range b.RightNeighbors(l) {
			if chosen[r] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
