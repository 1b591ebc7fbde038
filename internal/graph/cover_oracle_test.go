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

// The map-and-copy marginal cover CoverMarginal replaced, frozen as the
// reference the dense core must equal on every input.

// oracleCoverMaxWeightMarginal selects, each round, the right vertex
// with the most still-uncovered left neighbors, ties by the larger
// tieBreak and then the lower vertex ID.
func oracleCoverMaxWeightMarginal(b *Bipartite, tieBreak WeightFunc) ([]VertexID, error) {
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
func oracleCoverGreedy(b *Bipartite) ([]VertexID, error) {
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

// randomMaskedInstance draws a bipartite graph whose right IDs start at
// base (negative bases included) and an admit mask that may leave lefts
// uncoverable, be empty, or be nil.
func randomMaskedInstance(rng *rand.Rand, base int) (*Bipartite, []bool, map[VertexID]bool) {
	nl, nr := 1+rng.Intn(24), 1+rng.Intn(14)
	b := NewBipartite()
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

// Property: CoverMarginal under a mask, and the two Bipartite adapters,
// return exactly the oracle's cover — or fail exactly when it fails, on
// the lowest uncoverable left.
func TestCoverMarginalEqualsOracle(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
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
		lefts := make([][]VertexID, 0, b.LeftCount())
		firstBad := -1
		for i, l := range b.Lefts() {
			lefts = append(lefts, b.leftAdj[l])
			if firstBad < 0 && restricted.LeftDegree(l) == 0 {
				firstBad = i
			}
		}
		for name, tf := range map[string]WeightFunc{"tie": tie, "greedy": nil} {
			var want []VertexID
			var wantErr error
			if tf != nil {
				want, wantErr = oracleCoverMaxWeightMarginal(restricted, tf)
			} else {
				want, wantErr = oracleCoverGreedy(restricted)
			}
			got, err := CoverMarginal(lefts, admit, tf)
			if (err != nil) != (wantErr != nil) || !slices.Equal(got, want) {
				t.Fatalf("seed %d %s: CoverMarginal = %v, %v; oracle %v, %v", seed, name, got, err, want, wantErr)
			}
			var ue *UncoverableError
			if err != nil && (!errors.As(err, &ue) || ue.Left != firstBad || !errors.Is(err, ErrUncoverable)) {
				t.Fatalf("seed %d %s: error %v, want UncoverableError{Left: %d}", seed, name, err, firstBad)
			}
		}

		got, err := CoverMaxWeightMarginal(restricted, tie)
		want, wantErr := oracleCoverMaxWeightMarginal(restricted, tie)
		if !slices.Equal(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d: CoverMaxWeightMarginal = %v, %v; oracle %v, %v", seed, got, err, want, wantErr)
		}
		got, err = CoverGreedy(restricted)
		want, wantErr = oracleCoverGreedy(restricted)
		if !slices.Equal(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d: CoverGreedy = %v, %v; oracle %v, %v", seed, got, err, want, wantErr)
		}
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
	cover, err := CoverMarginal(lefts, admit, tie)
	if err != nil || len(cover) != 40 {
		t.Fatalf("cover = %v, %v; want the 40 private rights", cover, err)
	}
	allocs := testing.AllocsPerRun(20, func() { _, _ = CoverMarginal(lefts, admit, tie) })
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
		want, err := CoverMarginal(lefts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got, err := CoverMarginal(lefts, nil, nil); err != nil || !slices.Equal(got, want) {
					t.Errorf("concurrent CoverMarginal = %v, %v; alone %v", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
