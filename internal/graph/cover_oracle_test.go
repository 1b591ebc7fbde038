package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// The map-based cover solvers the list solvers replaced, frozen as the
// reference they must equal on every input: a minimal map instance, the
// marginal and greedy rules CoverMarginal replaced, and the static,
// random and exact solvers as they ran on it.

// refBipartite is the map instance: left → sorted rights, right → sorted
// lefts.
type refBipartite struct {
	leftAdj, rightAdj map[VertexID][]VertexID
}

func newRefBipartite() *refBipartite {
	return &refBipartite{leftAdj: map[VertexID][]VertexID{}, rightAdj: map[VertexID][]VertexID{}}
}

func (b *refBipartite) AddLeft(l VertexID) {
	if _, ok := b.leftAdj[l]; !ok {
		b.leftAdj[l] = nil
	}
}

func (b *refBipartite) AddEdge(l, r VertexID) {
	b.AddLeft(l)
	if _, ok := slices.BinarySearch(b.leftAdj[l], r); ok {
		return
	}
	i, _ := slices.BinarySearch(b.leftAdj[l], r)
	b.leftAdj[l] = slices.Insert(b.leftAdj[l], i, r)
	i, _ = slices.BinarySearch(b.rightAdj[r], l)
	b.rightAdj[r] = slices.Insert(b.rightAdj[r], i, l)
}

func sortedKeys(m map[VertexID][]VertexID) []VertexID {
	ks := make([]VertexID, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

func (b *refBipartite) Lefts() []VertexID          { return sortedKeys(b.leftAdj) }
func (b *refBipartite) Rights() []VertexID         { return sortedKeys(b.rightAdj) }
func (b *refBipartite) LeftCount() int             { return len(b.leftAdj) }
func (b *refBipartite) RightDegree(r VertexID) int { return len(b.rightAdj[r]) }
func (b *refBipartite) LeftNeighbors(r VertexID) []VertexID {
	return slices.Clone(b.rightAdj[r])
}

func (b *refBipartite) Validate() error {
	for _, l := range b.Lefts() {
		if len(b.leftAdj[l]) == 0 {
			return fmt.Errorf("graph: bipartite: left vertex %d has no right neighbors", l)
		}
	}
	return nil
}

func (b *refBipartite) RestrictRights(allow map[VertexID]bool) *refBipartite {
	nb := newRefBipartite()
	for l := range b.leftAdj {
		nb.AddLeft(l)
	}
	for r, ls := range b.rightAdj {
		if allow[r] {
			for _, l := range ls {
				nb.AddEdge(l, r)
			}
		}
	}
	return nb
}

// lists returns the instance as the solvers take it: the lefts in
// ascending order, each with its ascending rights.
func (b *refBipartite) lists() [][]VertexID {
	out := make([][]VertexID, 0, len(b.leftAdj))
	for _, l := range b.Lefts() {
		out = append(out, b.leftAdj[l])
	}
	return out
}

// oracleCoverMaxWeightMarginal selects, each round, the right vertex
// with the most still-uncovered left neighbors, ties by the larger
// tieBreak and then the lower vertex ID.
func oracleCoverMaxWeightMarginal(b *refBipartite, tieBreak func(VertexID) float64) ([]VertexID, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("cover max-weight marginal: %w", err)
	}
	uncovered := make(map[VertexID]bool, b.LeftCount())
	for _, l := range b.Lefts() {
		uncovered[l] = true
	}
	rights := b.Rights()
	var cover []VertexID
	for len(uncovered) > 0 {
		best := VertexID(-1)
		bestGain := 0
		bestTie := 0.0
		for _, r := range rights {
			gain := 0
			for _, l := range b.LeftNeighbors(r) {
				if uncovered[l] {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			tie := tieBreak(r)
			if gain > bestGain ||
				(gain == bestGain && tie > bestTie) ||
				(gain == bestGain && tie == bestTie && r < best) {
				best, bestGain, bestTie = r, gain, tie
			}
		}
		if bestGain == 0 {
			return nil, fmt.Errorf("%w: %d left vertices remain", ErrUncoverable, len(uncovered))
		}
		cover = append(cover, best)
		for _, l := range b.LeftNeighbors(best) {
			delete(uncovered, l)
		}
	}
	sort.Slice(cover, func(i, j int) bool { return cover[i] < cover[j] })
	return cover, nil
}

// oracleCoverGreedy is the same rule without a tie-break.
func oracleCoverGreedy(b *refBipartite) ([]VertexID, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("cover greedy: %w", err)
	}
	uncovered := make(map[VertexID]bool, b.LeftCount())
	for _, l := range b.Lefts() {
		uncovered[l] = true
	}
	rights := b.Rights()
	var cover []VertexID
	for len(uncovered) > 0 {
		best := VertexID(-1)
		bestGain := 0
		for _, r := range rights {
			gain := 0
			for _, l := range b.LeftNeighbors(r) {
				if uncovered[l] {
					gain++
				}
			}
			if gain > bestGain || (gain == bestGain && gain > 0 && r < best) {
				best, bestGain = r, gain
			}
		}
		if bestGain == 0 {
			return nil, fmt.Errorf("%w: %d left vertices remain", ErrUncoverable, len(uncovered))
		}
		cover = append(cover, best)
		for _, l := range b.LeftNeighbors(best) {
			delete(uncovered, l)
		}
	}
	sort.Slice(cover, func(i, j int) bool { return cover[i] < cover[j] })
	return cover, nil
}

// refCoverMaxWeight is the static solver: rights in descending weight
// order, each taken while it covers an uncovered left.
func refCoverMaxWeight(b *refBipartite, weight func(VertexID) float64) ([]VertexID, error) {
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

// refCoverRandom takes the rights in shuffled order.
func refCoverRandom(b *refBipartite, rng *rand.Rand) ([]VertexID, error) {
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

// refCoverExact is the branch and bound over uint64 sets of at most 64
// lefts, with refCoverExactBig beyond.
func refCoverExact(b *refBipartite) ([]VertexID, error) {
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
		return refCoverExactBig(b, rights, lefts)
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
	seed, err := oracleCoverGreedy(b)
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

// refCoverExactBig handles >64 left vertices with map-based sets.
func refCoverExactBig(b *refBipartite, rights, lefts []VertexID) ([]VertexID, error) {
	seed, err := oracleCoverGreedy(b)
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

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// randomMaskedInstance draws a bipartite graph whose right IDs start at
// base (negative bases included) and an admit mask that may leave lefts
// uncoverable, be empty, or be nil. One draw in four has 65 to 100
// lefts, past one 64-bit word.
func randomMaskedInstance(rng *rand.Rand, base int) (*refBipartite, []bool, map[VertexID]bool) {
	nl, nr := 1+rng.Intn(24), 1+rng.Intn(14)
	if rng.Intn(4) == 0 {
		nl = 65 + rng.Intn(36)
	}
	b := newRefBipartite()
	for l := 0; l < nl; l++ {
		b.AddLeft(VertexID(l))
		for r := 0; r < nr; r++ {
			if rng.Float64() < 0.3 {
				b.AddEdge(VertexID(l), VertexID(base+r))
			}
		}
	}
	var admit []bool
	var allow map[VertexID]bool
	switch rng.Intn(4) {
	case 0: // nil: every right admitted
	case 1: // empty
		admit, allow = []bool{}, map[VertexID]bool{}
	default:
		admit, allow = make([]bool, max(base+nr-rng.Intn(3), 0)), map[VertexID]bool{}
		for r := range admit {
			if rng.Float64() < 0.7 {
				admit[r], allow[VertexID(r)] = true, true
			}
		}
	}
	return b, admit, allow
}

// Property: every solver returns exactly the reference's cover, or fails
// exactly where it fails — an UncoverableError on the lowest left with no
// admitted right. CoverMarginal is given the whole instance and the
// mask; CoverStatic, CoverRandom and CoverExact the restricted lists.
// The exact reference is compared only up to 64 lefts: beyond, it ran a
// different search whose optimum may differ in its members (see
// TestCoverExactBigUniverse).
func TestCoverMarginalEqualsOracle(t *testing.T) {
	wide, failed := 0, 0
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, admit, allow := randomMaskedInstance(rng, []int{0, 100, -5}[seed%3])
		// Few distinct tie values, so ties on the tie-break happen too.
		weights := map[VertexID]float64{}
		for _, r := range b.Rights() {
			weights[r] = float64(rng.Intn(3))
		}
		tie := func(r VertexID) float64 { return weights[r] }

		restricted := b
		if admit != nil {
			restricted = b.RestrictRights(allow)
		}
		lefts, admitted := b.lists(), restricted.lists()
		firstBad := slices.IndexFunc(admitted, func(rs []VertexID) bool { return len(rs) == 0 })
		if len(lefts) > 64 {
			wide++
		}
		if firstBad >= 0 {
			failed++
		}
		check := func(name string, got []VertexID, err error, want []VertexID, wantErr error) {
			t.Helper()
			if (err != nil) != (wantErr != nil) || !slices.Equal(got, want) {
				t.Fatalf("seed %d %s = %v, %v; reference %v, %v", seed, name, got, err, want, wantErr)
			}
			var ue *UncoverableError
			if err != nil && (!errors.As(err, &ue) || ue.Left != firstBad || !errors.Is(err, ErrUncoverable)) {
				t.Fatalf("seed %d %s: error %v, want UncoverableError{Left: %d}", seed, name, err, firstBad)
			}
		}

		want, wantErr := oracleCoverMaxWeightMarginal(restricted, tie)
		got, err := CoverMarginal(nil, lefts, admit, tie)
		check("CoverMarginal", got, err, want, wantErr)
		want, wantErr = oracleCoverGreedy(restricted)
		got, err = CoverMarginal(nil, lefts, admit, nil)
		check("CoverMarginal greedy", got, err, want, wantErr)

		want, wantErr = refCoverMaxWeight(restricted, func(r VertexID) float64 {
			return float64(restricted.RightDegree(r)) + tie(r)
		})
		got, err = CoverStatic(admitted, tie)
		check("CoverStatic", got, err, want, wantErr)

		rngSeed := rng.Int63()
		want, wantErr = refCoverRandom(restricted, rand.New(rand.NewSource(rngSeed)))
		got, err = CoverRandom(admitted, rand.New(rand.NewSource(rngSeed)))
		check("CoverRandom", got, err, want, wantErr)

		if len(lefts) <= 64 {
			want, wantErr = refCoverExact(restricted)
			got, err = CoverExact(admitted)
			check("CoverExact", got, err, want, wantErr)
		}
	}
	if wide < 100 || failed < 100 {
		t.Fatalf("instances too narrow to mean anything: %d past 64 lefts, %d uncoverable", wide, failed)
	}
}

// The core allocates the cover it returns, whatever the number of
// rounds: the working arrays are pooled and nothing is allocated per
// round or per candidate.
func TestCoverMarginalAllocsDoNotGrowWithRounds(t *testing.T) {
	// 40 lefts with one private right each plus a shared tail: 40 rounds.
	lefts := make([][]VertexID, 40)
	for i := range lefts {
		lefts[i] = []VertexID{VertexID(i), 1000}
	}
	tie := func(VertexID) float64 { return 1 }
	admit := make([]bool, 1000) // the shared right is masked out
	for i := range admit {
		admit[i] = true
	}
	cover, err := CoverMarginal(nil, lefts, admit, tie)
	if err != nil || len(cover) != 40 {
		t.Fatalf("cover = %v, %v; want the 40 private rights", cover, err)
	}
	allocs := testing.AllocsPerRun(20, func() { _, _ = CoverMarginal(nil, lefts, admit, tie) })
	if allocs > 8 && !raceEnabled { // the 40-entry cover grows by doubling: 7
		t.Fatalf("CoverMarginal allocates %.0f times over 40 rounds, want only the cover it returns", allocs)
	}
}

// The pooled working arrays are each call's own for its duration: covers
// computed by several goroutines at once, over instances of different
// spans, equal the ones computed alone. Run under -race.
func TestCoverMarginalConcurrent(t *testing.T) {
	instance := func(seed int64) [][]VertexID {
		rng := rand.New(rand.NewSource(seed))
		lefts := make([][]VertexID, 5+rng.Intn(20))
		for i := range lefts {
			for r := 0; r < 10+int(seed)*40; r++ {
				if rng.Intn(4) == 0 {
					lefts[i] = append(lefts[i], VertexID(r))
				}
			}
			lefts[i] = append(lefts[i], VertexID(1000+i%3))
		}
		return lefts
	}
	var wg sync.WaitGroup
	for w := int64(0); w < 4; w++ {
		lefts := instance(w)
		want, err := CoverMarginal(nil, lefts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got, err := CoverMarginal(nil, lefts, nil, nil); err != nil || !slices.Equal(got, want) {
					t.Errorf("concurrent CoverMarginal = %v, %v; alone %v", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
