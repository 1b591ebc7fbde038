package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"github.com/alvc/alvc/internal/graph"
	"github.com/alvc/alvc/internal/topology"
)

// The map-based AL construction the list covers replaced, frozen as the
// reference every builder must equal: a minimal map instance, the
// VM↔ToR and ToR↔OPS projections onto it, the solvers that ran on it and
// the baseline builders' two-phase bodies.

// refBipartite is the map instance: left → sorted rights, right → sorted
// lefts.
type refBipartite struct {
	leftAdj, rightAdj map[topology.NodeID][]topology.NodeID
}

func newRefBipartite() *refBipartite {
	return &refBipartite{leftAdj: map[topology.NodeID][]topology.NodeID{}, rightAdj: map[topology.NodeID][]topology.NodeID{}}
}

func (b *refBipartite) AddLeft(l topology.NodeID) {
	if _, ok := b.leftAdj[l]; !ok {
		b.leftAdj[l] = nil
	}
}

func (b *refBipartite) AddEdge(l, r topology.NodeID) {
	b.AddLeft(l)
	i, ok := slices.BinarySearch(b.leftAdj[l], r)
	if ok {
		return
	}
	b.leftAdj[l] = slices.Insert(b.leftAdj[l], i, r)
	i, _ = slices.BinarySearch(b.rightAdj[r], l)
	b.rightAdj[r] = slices.Insert(b.rightAdj[r], i, l)
}

func sortedKeys(m map[topology.NodeID][]topology.NodeID) []topology.NodeID {
	ks := make([]topology.NodeID, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

func (b *refBipartite) Lefts() []topology.NodeID          { return sortedKeys(b.leftAdj) }
func (b *refBipartite) Rights() []topology.NodeID         { return sortedKeys(b.rightAdj) }
func (b *refBipartite) LeftCount() int                    { return len(b.leftAdj) }
func (b *refBipartite) RightDegree(r topology.NodeID) int { return len(b.rightAdj[r]) }
func (b *refBipartite) LeftNeighbors(r topology.NodeID) []topology.NodeID {
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

func refVMToRBipartite(t *topology.Topology, vms []topology.NodeID) (*refBipartite, error) {
	b := newRefBipartite()
	for _, vm := range vms {
		n := t.Node(vm)
		if n == nil || n.Kind != topology.KindVM {
			return nil, fmt.Errorf("topology: VMToRBipartite: node %d is not a VM", vm)
		}
		b.AddLeft(vm)
		for _, tor := range t.ToRsOfVM(vm) {
			b.AddEdge(vm, tor)
		}
	}
	return b, nil
}

func refToROPSBipartite(t *topology.Topology, tors []topology.NodeID, allow topology.NodeSet) (*refBipartite, error) {
	b := newRefBipartite()
	for _, tor := range tors {
		n := t.Node(tor)
		if n == nil || n.Kind != topology.KindToR {
			return nil, fmt.Errorf("topology: ToROPSBipartite: node %d is not a ToR", tor)
		}
		b.AddLeft(tor)
		for _, ops := range t.OPSsOfToR(tor) {
			if allow != nil && !allow.Has(ops) {
				continue
			}
			b.AddEdge(tor, ops)
		}
	}
	return b, nil
}

func refPhase1(topo *topology.Topology, vms []topology.NodeID) (*refBipartite, error) {
	if len(vms) == 0 {
		return nil, ErrNoVMs
	}
	b, err := refVMToRBipartite(topo, vms)
	if err != nil {
		return nil, fmt.Errorf("cluster: phase 1: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: phase 1: %w", err)
	}
	return b, nil
}

func refPhase2(topo *topology.Topology, tors []topology.NodeID, allowOPS topology.NodeSet) (*refBipartite, error) {
	b, err := refToROPSBipartite(topo, tors, allowOPS)
	if err != nil {
		return nil, fmt.Errorf("cluster: phase 2: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInsufficientOPS, err)
	}
	return b, nil
}

// oracleMarginal selects, each round, the right with the most
// still-uncovered lefts, ties by the larger tieBreak (none when nil:
// classic greedy) and then the lower ID.
func oracleMarginal(b *refBipartite, tieBreak func(topology.NodeID) float64) ([]topology.NodeID, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	uncovered := make(map[topology.NodeID]bool, b.LeftCount())
	for _, l := range b.Lefts() {
		uncovered[l] = true
	}
	rights := b.Rights()
	var cover []topology.NodeID
	for len(uncovered) > 0 {
		best := topology.NodeID(-1)
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
			tie := 0.0
			if tieBreak != nil {
				tie = tieBreak(r)
			}
			if gain > bestGain ||
				(gain == bestGain && tie > bestTie) ||
				(gain == bestGain && tie == bestTie && r < best) {
				best, bestGain, bestTie = r, gain, tie
			}
		}
		if bestGain == 0 {
			return nil, graph.ErrUncoverable
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
func refCoverMaxWeight(b *refBipartite, weight func(topology.NodeID) float64) ([]topology.NodeID, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("cover max-weight: %w", err)
	}
	rights := b.Rights()
	sort.SliceStable(rights, func(i, j int) bool {
		wi, wj := weight(rights[i]), weight(rights[j])
		if wi != wj {
			return wi > wj
		}
		return rights[i] < rights[j]
	})
	return refTakeInOrder(b, rights)
}

// refCoverRandom takes the rights in shuffled order.
func refCoverRandom(b *refBipartite, rng *rand.Rand) ([]topology.NodeID, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("cover random: %w", err)
	}
	if rng == nil {
		return nil, fmt.Errorf("cover random: nil rng")
	}
	rights := b.Rights()
	rng.Shuffle(len(rights), func(i, j int) { rights[i], rights[j] = rights[j], rights[i] })
	return refTakeInOrder(b, rights)
}

// refTakeInOrder is the selection loop the static and random solvers
// shared, each a copy of it.
func refTakeInOrder(b *refBipartite, rights []topology.NodeID) ([]topology.NodeID, error) {
	uncovered := make(map[topology.NodeID]bool, b.LeftCount())
	for _, l := range b.Lefts() {
		uncovered[l] = true
	}
	var cover []topology.NodeID
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
		return nil, fmt.Errorf("%w: %d left vertices remain", graph.ErrUncoverable, len(uncovered))
	}
	sort.Slice(cover, func(i, j int) bool { return cover[i] < cover[j] })
	return cover, nil
}

// refCoverExact is the branch and bound over uint64 sets of lefts. The
// builders' differential runs it only up to 64 lefts; beyond, the map
// search it fell back to is graph's reference (TestCoverExactBigUniverse).
func refCoverExact(b *refBipartite) ([]topology.NodeID, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("cover exact: %w", err)
	}
	rights := b.Rights()
	if len(rights) > graph.MaxExactCoverRights {
		return nil, fmt.Errorf("cover exact: %d right vertices exceeds limit %d", len(rights), graph.MaxExactCoverRights)
	}
	lefts := b.Lefts()
	if len(lefts) > 64 {
		return nil, fmt.Errorf("cover exact: %d lefts: past the reference's word", len(lefts))
	}
	leftIdx := make(map[topology.NodeID]int, len(lefts))
	for i, l := range lefts {
		leftIdx[l] = i
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
	popcount := func(x uint64) int {
		n := 0
		for ; x != 0; x &= x - 1 {
			n++
		}
		return n
	}
	order := make([]int, len(rights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return popcount(masks[order[i]]) > popcount(masks[order[j]])
	})
	seed, err := oracleMarginal(b, nil)
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
	out := make([]topology.NodeID, 0, len(best))
	for _, i := range best {
		out = append(out, rights[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// oraclePaperBuild is the PaperBuilder of before the dense cover, in
// both weight readings, with the optical degree counted from LinksOf.
func oraclePaperBuild(topo *topology.Topology, vms []topology.NodeID, allowOPS topology.NodeSet, static bool) (AL, error) {
	b1, err := refPhase1(topo, vms)
	if err != nil {
		return AL{}, err
	}
	torOut := func(r topology.NodeID) float64 {
		return float64(len(topo.OPSsOfToR(r)))
	}
	var tors []topology.NodeID
	if static {
		tors, err = refCoverMaxWeight(b1, func(r topology.NodeID) float64 {
			return float64(b1.RightDegree(r)) + torOut(r)
		})
	} else {
		tors, err = oracleMarginal(b1, torOut)
	}
	if err != nil {
		return AL{}, fmt.Errorf("cluster: paper phase 1: %w", err)
	}
	b2, err := refPhase2(topo, tors, allowOPS)
	if err != nil {
		return AL{}, err
	}
	opsOut := func(r topology.NodeID) float64 {
		deg := 0
		for _, l := range topo.Links() {
			if (l.From == r || l.To == r) && l.Kind == topology.LinkOptical {
				deg++
			}
		}
		return float64(deg)
	}
	var opss []topology.NodeID
	if static {
		opss, err = refCoverMaxWeight(b2, func(r topology.NodeID) float64 {
			return float64(b2.RightDegree(r)) + opsOut(r)
		})
	} else {
		opss, err = oracleMarginal(b2, opsOut)
	}
	if err != nil {
		return AL{}, fmt.Errorf("%w: %v", ErrInsufficientOPS, err)
	}
	return AL{ToRs: tors, OPSs: opss}, nil
}

// refBuildGreedy is GreedyBuilder.Build.
func refBuildGreedy(topo *topology.Topology, vms []topology.NodeID, allowOPS topology.NodeSet) (AL, error) {
	b1, err := refPhase1(topo, vms)
	if err != nil {
		return AL{}, err
	}
	tors, err := oracleMarginal(b1, nil)
	if err != nil {
		return AL{}, fmt.Errorf("cluster: greedy phase 1: %w", err)
	}
	b2, err := refPhase2(topo, tors, allowOPS)
	if err != nil {
		return AL{}, err
	}
	opss, err := oracleMarginal(b2, nil)
	if err != nil {
		return AL{}, fmt.Errorf("%w: %v", ErrInsufficientOPS, err)
	}
	return AL{ToRs: tors, OPSs: opss}, nil
}

// refBuildRandom is RandomBuilder.Build.
func refBuildRandom(topo *topology.Topology, vms []topology.NodeID, allowOPS topology.NodeSet, rng *rand.Rand) (AL, error) {
	if rng == nil {
		return AL{}, fmt.Errorf("cluster: random builder: nil RNG")
	}
	b1, err := refPhase1(topo, vms)
	if err != nil {
		return AL{}, err
	}
	tors, err := refCoverRandom(b1, rng)
	if err != nil {
		return AL{}, fmt.Errorf("cluster: random phase 1: %w", err)
	}
	b2, err := refPhase2(topo, tors, allowOPS)
	if err != nil {
		return AL{}, err
	}
	opss, err := refCoverRandom(b2, rng)
	if err != nil {
		return AL{}, fmt.Errorf("%w: %v", ErrInsufficientOPS, err)
	}
	return AL{ToRs: tors, OPSs: opss}, nil
}

// refBuildExact is ExactBuilder.Build.
func refBuildExact(topo *topology.Topology, vms []topology.NodeID, allowOPS topology.NodeSet) (AL, error) {
	b1, err := refPhase1(topo, vms)
	if err != nil {
		return AL{}, err
	}
	tors, err := refCoverExact(b1)
	if err != nil {
		return AL{}, fmt.Errorf("cluster: exact phase 1: %w", err)
	}
	b2, err := refPhase2(topo, tors, allowOPS)
	if err != nil {
		return AL{}, err
	}
	opss, err := refCoverExact(b2)
	if err != nil {
		return AL{}, fmt.Errorf("%w: %v", ErrInsufficientOPS, err)
	}
	return AL{ToRs: tors, OPSs: opss}, nil
}

// refBuildDirect is DirectBuilder.Build.
func refBuildDirect(topo *topology.Topology, vms []topology.NodeID, allowOPS topology.NodeSet, exact bool) (AL, error) {
	if len(vms) == 0 {
		return AL{}, ErrNoVMs
	}
	b := newRefBipartite()
	for _, vm := range vms {
		n := topo.Node(vm)
		if n == nil || n.Kind != topology.KindVM {
			return AL{}, fmt.Errorf("cluster: direct: node %d is not a VM", vm)
		}
		b.AddLeft(vm)
		for _, tor := range topo.ToRsOfVM(vm) {
			for _, ops := range topo.OPSsOfToR(tor) {
				if allowOPS != nil && !allowOPS.Has(ops) {
					continue
				}
				b.AddEdge(vm, ops)
			}
		}
	}
	if err := b.Validate(); err != nil {
		return AL{}, fmt.Errorf("%w: %v", ErrInsufficientOPS, err)
	}
	var ops []topology.NodeID
	var err error
	if exact {
		ops, err = refCoverExact(b)
	} else {
		ops, err = oracleMarginal(b, nil)
	}
	if err != nil {
		return AL{}, fmt.Errorf("%w: %v", ErrInsufficientOPS, err)
	}
	opsSet := make(map[topology.NodeID]bool, len(ops))
	for _, o := range ops {
		opsSet[o] = true
	}
	torSet := make(map[topology.NodeID]bool)
	for _, vm := range vms {
		for _, tor := range topo.ToRsOfVM(vm) {
			for _, o := range topo.OPSsOfToR(tor) {
				if opsSet[o] {
					torSet[tor] = true
				}
			}
		}
	}
	tors := make([]topology.NodeID, 0, len(torSet))
	for tor := range torSet {
		tors = append(tors, tor)
	}
	slices.Sort(tors)
	return AL{ToRs: tors, OPSs: ops}, nil
}

// sameOutcome reports whether two builds agree: the same AL, or failures
// of the same kind.
func sameOutcome(got AL, gotErr error, want AL, wantErr error) bool {
	if gotErr != nil || wantErr != nil {
		return gotErr != nil && wantErr != nil &&
			errors.Is(gotErr, ErrNoVMs) == errors.Is(wantErr, ErrNoVMs) &&
			errors.Is(gotErr, ErrInsufficientOPS) == errors.Is(wantErr, ErrInsufficientOPS)
	}
	return slices.Equal(got.ToRs, want.ToRs) && slices.Equal(got.OPSs, want.OPSs)
}
