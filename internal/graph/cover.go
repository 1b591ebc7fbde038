package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// The covers of abstraction-layer construction (paper §III-C). An
// instance is given as adjacency lists: lefts[i] is the ascending,
// duplicate-free list of right vertices the i-th left vertex attaches to
// — a VM's ToRs in phase 1, a chosen ToR's admitted OPS uplinks in
// phase 2. A cover is a set of rights that every left lists at least one
// of; the lists are only read, so callers pass cached adjacency as is.
// Every solver fails on the first left with no right, with an
// UncoverableError, and returns its cover sorted ascending.

// ErrUncoverable is reported (wrapped) when some left vertex has no
// available right neighbor, so no cover exists.
var ErrUncoverable = fmt.Errorf("graph: cover: left vertex cannot be covered")

// UncoverableError is every solver's failure on a left with no
// (admitted) right: the left at position Left of its input. It unwraps
// to ErrUncoverable.
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
// admit, when non-nil, masks the rights by vertex ID: r takes part iff
// admit[r] (IDs beyond the mask do not). Gains live in one counter array
// over the span of right IDs and are decremented as lefts become
// covered, so a round costs one pass over the candidates and nothing is
// copied or hashed; the working arrays are pooled, so a call allocates
// its result.
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

// CoverStatic is the static-weight reading of the paper's rule, kept for
// the E4 ablation: the rights are ordered once by descending weight — a
// right's in-degree (the lefts that list it) plus out(r), its outgoing
// connections — ties toward the lower ID, and each is taken while it
// still covers an uncovered left. On the paper's walk-through it agrees
// with CoverMarginal (ToR 1 at 4 in + 2 out first, ToR 2 skipped because
// its machines are covered, then ToR 3); on ring-structured uplink
// windows it measurably loses to random selection.
func CoverStatic[V ~int](lefts [][]V, out func(V) float64) ([]V, error) {
	rights, adj, err := rightIndex(lefts)
	if err != nil {
		return nil, err
	}
	weight := make([]float64, len(rights))
	for j, r := range rights {
		weight[j] = float64(len(adj[j])) + out(r)
	}
	order := identity(len(rights))
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(weight[b], weight[a]) })
	return coverInOrder(len(lefts), rights, adj, order), nil
}

// CoverRandom takes the rights in a uniformly random order (a shuffle of
// the ascending distinct rights) while each still covers an uncovered
// left. It reproduces the random-selection AL construction of the
// authors' earlier work [15], the baseline this paper improves on.
func CoverRandom[V ~int](lefts [][]V, rng *rand.Rand) ([]V, error) {
	rights, adj, err := rightIndex(lefts)
	if err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("graph: cover random: nil rng")
	}
	order := identity(len(rights))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return coverInOrder(len(lefts), rights, adj, order), nil
}

// MaxExactCoverRights bounds the instance size accepted by CoverExact;
// beyond it the branch-and-bound search space is too large.
const MaxExactCoverRights = 30

// CoverExact returns a minimum-cardinality cover by branch and bound over
// bitsets of lefts. It is exponential in the number of distinct rights
// and refuses instances with more than MaxExactCoverRights of them; it
// exists as ground truth for tests and for the optimality-gap
// measurements of experiment E4. The search tries the rights by
// descending coverage (stable over ascending IDs) and starts from the
// greedy cover as the incumbent; of equal-size optima it returns the
// first it meets.
func CoverExact[V ~int](lefts [][]V) ([]V, error) {
	rights, adj, err := rightIndex(lefts)
	if err != nil {
		return nil, err
	}
	if len(rights) > MaxExactCoverRights {
		return nil, fmt.Errorf("graph: cover exact: %d right vertices exceeds limit %d", len(rights), MaxExactCoverRights)
	}
	words := (len(lefts) + 63) / 64
	full := make([]uint64, words)
	for l := range lefts {
		full[l/64] |= 1 << (l % 64)
	}
	masks := make([][]uint64, len(rights))
	for j := range rights {
		masks[j] = make([]uint64, words)
		for _, l := range adj[j] {
			masks[j][l/64] |= 1 << (l % 64)
		}
	}
	order := identity(len(rights))
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(len(adj[b]), len(adj[a])) })
	seed, err := CoverMarginal(lefts, nil, nil)
	if err != nil {
		return nil, err
	}
	best := make([]int, len(seed))
	for i, r := range seed {
		best[i], _ = slices.BinarySearch(rights, r)
	}
	// taken[k] holds the covered set after a take at depth k-1; a branch
	// at depth pos reads a row below pos+1 and writes only row pos+1.
	taken := make([][]uint64, len(order)+1)
	for k := range taken {
		taken[k] = make([]uint64, words)
	}
	rest := make([]uint64, words)
	var cur []int
	var search func(pos int, covered []uint64)
	search = func(pos int, covered []uint64) {
		if slices.Equal(covered, full) {
			if len(cur) < len(best) {
				best = append(best[:0], cur...)
			}
			return
		}
		// One more pick cannot beat the incumbent, nor can the remaining
		// rights if together they leave a left uncovered.
		if len(cur)+1 >= len(best) || pos == len(order) {
			return
		}
		copy(rest, covered)
		for _, j := range order[pos:] {
			orInto(rest, rest, masks[j])
		}
		if !slices.Equal(rest, full) {
			return
		}
		j := order[pos]
		if next := taken[pos+1]; orInto(next, covered, masks[j]) {
			cur = append(cur, j)
			search(pos+1, next)
			cur = cur[:len(cur)-1]
		}
		search(pos+1, covered)
	}
	search(0, taken[0])
	cover := make([]V, len(best))
	for i, j := range best {
		cover[i] = rights[j]
	}
	slices.Sort(cover)
	return cover, nil
}

// orInto sets dst to a|b and reports whether that differs from a.
func orInto(dst, a, b []uint64) (grew bool) {
	for w := range dst {
		grew = grew || b[w]&^a[w] != 0
		dst[w] = a[w] | b[w]
	}
	return grew
}

// rightIndex returns the distinct rights of lefts in ascending order and,
// for each, the positions of the lefts that list it, or the
// UncoverableError of the first left with an empty list.
func rightIndex[V ~int](lefts [][]V) (rights []V, adj [][]int, err error) {
	for i, ns := range lefts {
		if len(ns) == 0 {
			return nil, nil, &UncoverableError{Left: i}
		}
		rights = append(rights, ns...)
	}
	slices.Sort(rights)
	rights = slices.Compact(rights)
	adj = make([][]int, len(rights))
	for i, ns := range lefts {
		for _, r := range ns {
			j, _ := slices.BinarySearch(rights, r)
			adj[j] = append(adj[j], i)
		}
	}
	return rights, adj, nil
}

// coverInOrder takes the rights in order while each still covers an
// uncovered left: the selection of CoverStatic and CoverRandom. Every
// left lists a right, so the walk covers them all.
func coverInOrder[V ~int](nLefts int, rights []V, adj [][]int, order []int) []V {
	covered := make([]bool, nLefts)
	var cover []V
	for remaining, k := nLefts, 0; remaining > 0; k++ {
		j := order[k]
		if !slices.ContainsFunc(adj[j], func(l int) bool { return !covered[l] }) {
			continue // the paper's "already connected by ToR 1" skip
		}
		cover = append(cover, rights[j])
		for _, l := range adj[j] {
			if !covered[l] {
				covered[l] = true
				remaining--
			}
		}
	}
	slices.Sort(cover)
	return cover
}

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}
