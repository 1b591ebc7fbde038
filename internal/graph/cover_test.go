package graph

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// fig4Instance builds the worked example of paper Fig. 4: four ToRs
// (rights 101..104) where ToR 1 attaches four VMs and has two OPS
// uplinks, ToR 2's machines are all already covered by ToR 1, and ToR 3
// covers the remainder. Lefts are VMs 1..6; uplinks are the ToRs'
// outgoing connections.
func fig4Instance() (lefts [][]VertexID, uplinks func(VertexID) float64) {
	lefts = [][]VertexID{
		{101},      // VM 1
		{101, 102}, // VM 2: ToR 2's machines are ToR 1's too
		{101, 102}, // VM 3
		{101},      // VM 4
		{103},      // VM 5
		{103, 104}, // VM 6: ToR N reaches only VM 6
	}
	out := map[VertexID]float64{101: 2, 102: 2, 103: 1, 104: 1}
	return lefts, func(r VertexID) float64 { return out[r] }
}

// isCover reports whether every left lists a right of cover.
func isCover(lefts [][]VertexID, cover []VertexID) bool {
	for _, rs := range lefts {
		if !slices.ContainsFunc(rs, func(r VertexID) bool { return slices.Contains(cover, r) }) {
			return false
		}
	}
	return true
}

func TestCoverMaxWeightFig4(t *testing.T) {
	lefts, uplinks := fig4Instance()
	cover, err := CoverStatic(lefts, uplinks)
	if err != nil {
		t.Fatalf("CoverStatic: %v", err)
	}
	// The paper's walk-through: select ToR 1 (4 in + 2 out), skip ToR 2
	// (machines already covered), select ToR 3; done.
	if want := []VertexID{101, 103}; !slices.Equal(cover, want) {
		t.Fatalf("cover = %v, want %v", cover, want)
	}
	if !isCover(lefts, cover) {
		t.Fatal("reported cover does not cover all lefts")
	}
}

func TestCoverMaxWeightSkipsRedundant(t *testing.T) {
	// Right 11 is strictly redundant with 10, and heavier by its out
	// weight alone: the walk still skips it once 10 covers left 1.
	lefts := [][]VertexID{{10, 11}, {10}}
	cover, err := CoverStatic(lefts, func(r VertexID) float64 { return float64(r - 10) })
	if err != nil {
		t.Fatalf("CoverStatic: %v", err)
	}
	if !slices.Equal(cover, []VertexID{10}) {
		t.Fatalf("cover = %v, want [10]", cover)
	}
}

func TestCoverMaxWeightMarginalFig4(t *testing.T) {
	lefts, uplinks := fig4Instance()
	cover, err := CoverMarginal(nil, lefts, nil, uplinks)
	if err != nil {
		t.Fatalf("CoverMarginal: %v", err)
	}
	if want := []VertexID{101, 103}; !slices.Equal(cover, want) {
		t.Fatalf("cover = %v, want %v", cover, want)
	}
}

func TestCoverMaxWeightMarginalTieBreak(t *testing.T) {
	// Rights 10 and 11 both cover both lefts; tie-break weight must
	// pick 11.
	lefts := [][]VertexID{{10, 11}, {10, 11}}
	cover, err := CoverMarginal(nil, lefts, nil, func(r VertexID) float64 { return float64(r) })
	if err != nil {
		t.Fatalf("CoverMarginal: %v", err)
	}
	if !slices.Equal(cover, []VertexID{11}) {
		t.Fatalf("cover = %v, want [11]", cover)
	}
}

func TestCoverMaxWeightMarginalUncoverable(t *testing.T) {
	lefts := [][]VertexID{{10}, {10, 11}}
	admit := []bool{10: false, 11: true}
	_, err := CoverMarginal(nil, lefts, admit, func(VertexID) float64 { return 0 })
	var ue *UncoverableError
	if !errors.As(err, &ue) || ue.Left != 0 {
		t.Fatalf("left 0 with no admitted right: err = %v", err)
	}
}

func TestCoverGreedySimple(t *testing.T) {
	// Right 20 covers 3 lefts; rights 21,22 cover one each; greedy must
	// pick 20 then whichever covers the remaining left.
	lefts := [][]VertexID{{20}, {20}, {20, 22}, {21}}
	cover, err := CoverMarginal(nil, lefts, nil, nil)
	if err != nil {
		t.Fatalf("CoverMarginal: %v", err)
	}
	if !slices.Equal(cover, []VertexID{20, 21}) {
		t.Fatalf("cover = %v, want [20 21]", cover)
	}
}

// Every solver fails on a left with no right, naming its position.
func TestCoverUncoverable(t *testing.T) {
	lefts := [][]VertexID{{10}, {}, {11}} // left 1 is isolated
	solvers := map[string]func() ([]VertexID, error){
		"marginal": func() ([]VertexID, error) { return CoverMarginal(nil, lefts, nil, nil) },
		"static":   func() ([]VertexID, error) { return CoverStatic(lefts, func(VertexID) float64 { return 1 }) },
		"exact":    func() ([]VertexID, error) { return CoverExact(lefts) },
		"random":   func() ([]VertexID, error) { return CoverRandom(lefts, rand.New(rand.NewSource(1))) },
	}
	for name, solve := range solvers {
		_, err := solve()
		var ue *UncoverableError
		if !errors.As(err, &ue) || ue.Left != 1 {
			t.Fatalf("%s: err = %v, want UncoverableError{Left: 1}", name, err)
		}
	}
}

func TestCoverRandomCoversAndIsSeeded(t *testing.T) {
	lefts, _ := fig4Instance()
	c1, err := CoverRandom(lefts, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatalf("CoverRandom: %v", err)
	}
	if !isCover(lefts, c1) {
		t.Fatal("random cover invalid")
	}
	c2, err := CoverRandom(lefts, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatalf("CoverRandom: %v", err)
	}
	if !slices.Equal(c1, c2) {
		t.Fatalf("same seed produced different covers: %v vs %v", c1, c2)
	}
}

func TestCoverRandomNilRNG(t *testing.T) {
	lefts, _ := fig4Instance()
	if _, err := CoverRandom(lefts, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestCoverExactMatchesKnownOptimum(t *testing.T) {
	lefts, _ := fig4Instance()
	cover, err := CoverExact(lefts)
	if err != nil {
		t.Fatalf("CoverExact: %v", err)
	}
	if len(cover) != 2 {
		t.Fatalf("exact cover size = %d, want 2 (%v)", len(cover), cover)
	}
	if !isCover(lefts, cover) {
		t.Fatal("exact cover invalid")
	}
}

func TestCoverExactBeatsOrMatchesHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	degree := func(VertexID) float64 { return 0 }
	for trial := 0; trial < 50; trial++ {
		lefts := randomLists(rng, 12, 8, 0.35)
		exact, err := CoverExact(lefts)
		if err != nil {
			t.Fatalf("CoverExact: %v", err)
		}
		greedy, err := CoverMarginal(nil, lefts, nil, nil)
		if err != nil {
			t.Fatalf("CoverMarginal: %v", err)
		}
		mw, err := CoverStatic(lefts, degree)
		if err != nil {
			t.Fatalf("CoverStatic: %v", err)
		}
		if len(exact) > len(greedy) || len(exact) > len(mw) {
			t.Fatalf("trial %d: exact %d worse than greedy %d or max-weight %d",
				trial, len(exact), len(greedy), len(mw))
		}
		for _, c := range [][]VertexID{exact, greedy, mw} {
			if !isCover(lefts, c) {
				t.Fatalf("trial %d: invalid cover %v", trial, c)
			}
		}
	}
}

func TestCoverExactRefusesLargeInstances(t *testing.T) {
	var rights []VertexID
	for r := 0; r <= MaxExactCoverRights; r++ {
		rights = append(rights, VertexID(r))
	}
	if _, err := CoverExact([][]VertexID{rights}); err == nil {
		t.Fatal("oversized instance accepted")
	}
}

// Past 64 lefts the search runs on more than one bitset word. The one
// check of CoverExact against the reference there is the optimum's size:
// the reference's big-instance search visited the rights in another
// order, so of equal optima it may return another. The instances are the
// textbook trap for greedy — two row rights cover everything, while
// columns of 2, 4, 8 (and 16) elements per row each outweigh what a row
// has left — with every element replicated into several lefts, the lefts
// in row order or shuffled across words, and a few random rights on top.
func TestCoverExactBigUniverse(t *testing.T) {
	beatGreedy := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k, rep := 3+rng.Intn(2), 3+rng.Intn(4)
		b := newRefBipartite()
		perm := rng.Perm(2 * (1<<(k+1) - 2) * rep)
		if seed%2 == 0 { // row by row: row 101's lefts all past the first word
			slices.Sort(perm)
		}
		next := 0
		for row := 0; row < 2; row++ {
			for col := 1; col <= k; col++ {
				for e := 0; e < (1<<col)*rep; e++ {
					l := VertexID(perm[next])
					next++
					b.AddEdge(l, VertexID(100+row))
					b.AddEdge(l, VertexID(200+col))
					for r := 0; r < 6; r++ {
						if rng.Float64() < 0.02 {
							b.AddEdge(l, VertexID(300+r))
						}
					}
				}
			}
		}
		lefts := b.lists()
		cover, err := CoverExact(lefts)
		if err != nil {
			t.Fatalf("seed %d: CoverExact: %v", seed, err)
		}
		want, err := refCoverExact(b)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if len(lefts) <= 64 || len(cover) != len(want) || !isCover(lefts, cover) {
			t.Fatalf("seed %d: %d lefts: cover %v, reference optimum %v", seed, len(lefts), cover, want)
		}
		if greedy, _ := CoverMarginal(nil, lefts, nil, nil); len(cover) < len(greedy) {
			beatGreedy++
		}
	}
	if beatGreedy < 20 {
		t.Fatalf("exact beat greedy on %d of 40 instances: too easy to tell a search from its seed", beatGreedy)
	}
}

// randomLists draws lefts over rights 100.. with edge probability p,
// every left given at least one right.
func randomLists(rng *rand.Rand, lefts, rights int, p float64) [][]VertexID {
	out := make([][]VertexID, lefts)
	for l := range out {
		for r := 0; r < rights; r++ {
			if rng.Float64() < p {
				out[l] = append(out[l], VertexID(100+r))
			}
		}
		if len(out[l]) == 0 {
			out[l] = []VertexID{VertexID(100 + rng.Intn(rights))}
		}
	}
	return out
}

// Property: every solver returns a valid cover on arbitrary coverable
// instances, and exact is never larger than the heuristics.
func TestCoverPropertyAllSolversValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lefts := randomLists(rng, 2+rng.Intn(20), 2+rng.Intn(10), 0.3)
		mw, err := CoverStatic(lefts, func(VertexID) float64 { return 0 })
		if err != nil || !isCover(lefts, mw) {
			return false
		}
		gr, err := CoverMarginal(nil, lefts, nil, nil)
		if err != nil || !isCover(lefts, gr) {
			return false
		}
		rd, err := CoverRandom(lefts, rng)
		if err != nil || !isCover(lefts, rd) {
			return false
		}
		ex, err := CoverExact(lefts)
		if err != nil || !isCover(lefts, ex) {
			return false
		}
		return len(ex) <= len(gr) && len(ex) <= len(mw) && len(ex) <= len(rd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestErrUncoverableWrapped(t *testing.T) {
	// A left whose only right is masked out.
	_, err := CoverMarginal(nil, [][]VertexID{{10}}, []bool{}, nil)
	if !errors.Is(err, ErrUncoverable) {
		t.Fatalf("err = %v, want it to wrap ErrUncoverable", err)
	}
	_, err = CoverStatic([][]VertexID{{}}, func(VertexID) float64 { return 1 })
	if !errors.Is(err, ErrUncoverable) {
		t.Fatalf("err = %v, want it to wrap ErrUncoverable", err)
	}
}
