// Package cluster implements the paper's core contribution (§III-C):
// construction of Abstraction Layers (ALs) — the minimum set of optical
// packet switches (OPSs) that connects all machines of a service group —
// and the Virtual Clusters (VCs) they form together with those machines.
//
// Five interchangeable AL builders are provided. Each covers adjacency
// lists with a solver of internal/graph: the paper's on its own path
// (buildMarginal), the two-phase baselines through one skeleton
// (buildTwoPhase) that differs only in the cover rule it runs:
//
//   - PaperBuilder: the paper's two-phase max-weight vertex-cover
//     algorithm (select ToRs by maximum in+out connections until all VMs
//     are covered, then select OPSs the same way until all selected ToRs
//     are covered); StaticWeight switches it to the skeleton with the
//     static-weight cover, the E4 ablation.
//   - GreedyBuilder: classic greedy set cover in both phases (quality
//     baseline).
//   - RandomBuilder: random selection, reproducing the authors' earlier
//     construction [15] that this paper improves on.
//   - ExactBuilder: branch-and-bound optimum per phase (ground truth on
//     small instances).
//   - DirectBuilder: one-phase cover of VMs directly by OPSs (an OPS
//     covers a VM if it uplinks one of the VM's ToRs) — an ablation that
//     quantifies what the paper's two-phase decomposition costs.
//
// The Allocator enforces the paper's constraint that "one OPS cannot be
// part of two ALs at the same time".
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"github.com/alvc/alvc/internal/graph"
	"github.com/alvc/alvc/internal/topology"
)

// AL is an abstraction layer: the ToR switches selected to reach a VM
// group and the OPSs that form the layer proper. Both slices are sorted
// by node ID.
type AL struct {
	ToRs []topology.NodeID
	OPSs []topology.NodeID
}

// Size returns the number of OPSs in the layer — the quantity the
// paper's algorithm minimizes.
func (al AL) Size() int { return len(al.OPSs) }

// OPSSet returns the OPSs as a set.
func (al AL) OPSSet() map[topology.NodeID]bool {
	s := make(map[topology.NodeID]bool, len(al.OPSs))
	for _, o := range al.OPSs {
		s[o] = true
	}
	return s
}

// Builder constructs an abstraction layer for a VM group using only
// OPSs permitted by allowOPS (nil means every OPS is available). The
// Allocator passes its own free set, so Build must neither modify nor
// retain allowOPS.
type Builder interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	Build(topo *topology.Topology, vms []topology.NodeID, allowOPS map[topology.NodeID]bool) (AL, error)
}

// ErrNoVMs is returned when a build is requested for an empty group.
var ErrNoVMs = fmt.Errorf("cluster: no VMs in group")

// ErrInsufficientOPS is wrapped when the available OPSs cannot connect
// the group (e.g. all uplink OPSs already belong to other ALs).
var ErrInsufficientOPS = fmt.Errorf("cluster: available OPSs cannot cover the group")

// PaperBuilder is the paper's §III-C construction. The walk-through
// selects "ToR 1 as it has four incoming connections and two outgoing",
// then skips ToR 2 because "machines against this switch are already
// connected by ToR 1" — i.e. the incoming-connection count that matters
// is the count of *not yet covered* machines (marginal gain), with
// outgoing connections (OPS uplinks) as tie-break. Phase 2 selects
// OPSs the same way: uncovered selected-ToR connections first,
// optical-mesh degree as tie-break.
//
// Alternative readings — summing the two static degrees, or using the
// static in-degree lexicographically — produce covers that measurably
// lose to the random baseline on ring-structured uplink windows; the
// StaticWeight field switches to the static-sum reading for the E4/
// ablation benchmarks.
type PaperBuilder struct {
	// StaticWeight switches to the static in+out degree ordering (the
	// literal-sum reading of §III-C) instead of marginal gain. Used by
	// ablation experiments; leave false for the paper's behavior.
	StaticWeight bool
}

// Name implements Builder.
func (p PaperBuilder) Name() string {
	if p.StaticWeight {
		return "paper-staticweight"
	}
	return "paper-maxweight"
}

// Build implements Builder: allowOPS densified once into a mask by node
// ID, then buildMarginal. The Allocator keeps that mask itself and skips this.
func (p PaperBuilder) Build(topo *topology.Topology, vms []topology.NodeID, allowOPS map[topology.NodeID]bool) (AL, error) {
	if p.StaticWeight {
		return buildTwoPhase(topo, vms, allowOPS, graph.CoverStatic[topology.NodeID])
	}
	var admit []bool
	if allowOPS != nil {
		admit = make([]bool, len(topo.OpticalDegrees()))
		for ops, ok := range allowOPS {
			if ok && ops >= 0 && int(ops) < len(admit) {
				admit[ops] = true
			}
		}
	}
	var stats CoverStats
	return buildMarginal(topo, vms, admit, &stats)
}

// CoverStats counts how the paper builder answered phase 2 (chosen ToRs
// → OPSs) for an Allocator; see coverToRs.
type CoverStats struct {
	// FullCovers counts the builds one admitted OPS uplinking every chosen
	// ToR answered, Fallbacks the builds that ran graph.CoverMarginal.
	FullCovers, Fallbacks int
	// Evaluated counts the admitted OPSs the full-cover walk tested
	// against the chosen ToRs' uplinks.
	Evaluated int
}

// buildMarginal is the paper's construction: both phases run the
// marginal-gain cover straight over the topology's cached adjacency — the
// VMs' ToR lists, the chosen ToRs' OPS lists, the per-node optical
// degrees — and no bipartite graph is materialized. admit masks the OPSs
// by node ID (nil admits all, IDs beyond it are barred) and is only read.
func buildMarginal(topo *topology.Topology, vms []topology.NodeID, admit []bool, stats *CoverStats) (AL, error) {
	// Phase 1: cover the (distinct) VMs by ToRs; a ToR's outgoing
	// connections are its OPS uplinks.
	group, lefts, err := vmToRs(topo, vms)
	if err != nil {
		return AL{}, err
	}
	tors, err := graph.CoverMarginal(lefts, nil, torUplinks(topo))
	if err != nil {
		return AL{}, fmt.Errorf("cluster: paper phase 1: VM %d: %w", group[uncoverable(err)], err)
	}
	// A cover picks at most one ToR per VM, so lefts has room for phase 2.
	opss, err := coverToRs(topo, tors, lefts[:len(tors)], admit, stats)
	if err != nil {
		return AL{}, fmt.Errorf("%w: ToR %d has no available OPS uplink", ErrInsufficientOPS, tors[uncoverable(err)])
	}
	return AL{ToRs: tors, OPSs: opss}, nil
}

// vmToRs is phase 1's instance: the group's distinct VMs in ascending
// order and, for each, the ToRs of its host PM (cached lists, read-only).
func vmToRs(topo *topology.Topology, vms []topology.NodeID) (group []topology.NodeID, lefts [][]topology.NodeID, err error) {
	if len(vms) == 0 {
		return nil, nil, ErrNoVMs
	}
	group = slices.Clone(vms)
	slices.Sort(group)
	group = slices.Compact(group)
	lefts = make([][]topology.NodeID, len(group))
	for i, vm := range group {
		n := topo.Node(vm)
		if n == nil || n.Kind != topology.KindVM {
			return nil, nil, fmt.Errorf("cluster: phase 1: node %d is not a VM", vm)
		}
		lefts[i] = topo.ToRsOfPM(n.Host)
	}
	return group, lefts, nil
}

// torUplinks weighs a ToR by its outgoing connections, its OPS uplinks:
// phase 1's tie-break.
func torUplinks(topo *topology.Topology) func(topology.NodeID) float64 {
	return func(tor topology.NodeID) float64 { return float64(len(topo.OPSsOfToR(tor))) }
}

// coverToRs is phase 2: cover the chosen ToRs by admitted OPSs, an OPS's
// outgoing connections (the tie-break) being its optical-mesh degree. It
// fills lefts with the ToRs' live uplinks and returns what
// graph.CoverMarginal would over them, running that candidate pass — one
// per round over every admitted OPS the ToRs reach, the pool on a wide
// fabric — only when no single admitted OPS uplinks every chosen ToR (see
// fullCover). Either way the cover is the one slice it allocates.
func coverToRs(topo *topology.Topology, tors []topology.NodeID, lefts [][]topology.NodeID, admit []bool, stats *CoverStats) ([]topology.NodeID, error) {
	scan := 0
	for i, tor := range tors {
		lefts[i] = topo.OPSsOfToR(tor)
		if len(lefts[i]) < len(lefts[scan]) {
			scan = i
		}
	}
	ops, evaluated := fullCover(lefts, topo.OPSsOfToRByDegree(tors[scan]), admit)
	stats.Evaluated += evaluated
	if ops > 0 {
		stats.FullCovers++
		return []topology.NodeID{ops}, nil
	}
	stats.Fallbacks++
	degree := topo.OpticalDegrees()
	return graph.CoverMarginal(lefts, admit, func(ops topology.NodeID) float64 {
		return float64(degree[ops])
	})
}

// fullCover returns the first admitted OPS of byTie that is in every list
// of lefts, or 0 (no node's ID) if there is none, and how many admitted
// OPSs it tested. byTie must be the live uplinks of one ToR of lefts in
// the cover's tie order (optical degree descending, then ID ascending):
// an OPS in every list has the largest gain CoverMarginal can see, every
// OPS of that gain uplinks this ToR too, and the first of them in tie
// order is the greedy's first pick — which covers every ToR, so it is the
// whole cover. A list that missed a recovered uplink or kept an old
// degree order would answer something else
// (TestFullCoverCatchesStaleTieOrder).
func fullCover(lefts [][]topology.NodeID, byTie []topology.NodeID, admit []bool) (ops topology.NodeID, evaluated int) {
	for _, o := range byTie {
		if admit != nil && (int(o) >= len(admit) || !admit[o]) {
			continue
		}
		evaluated++
		if inEvery(lefts, o) {
			return o, evaluated
		}
	}
	return 0, evaluated
}

func inEvery(lists [][]topology.NodeID, v topology.NodeID) bool {
	for _, l := range lists {
		if _, ok := slices.BinarySearch(l, v); !ok {
			return false
		}
	}
	return true
}

// uncoverable returns the position of the left vertex a failed
// graph.CoverMarginal could not cover — its only failure.
func uncoverable(err error) int {
	var ue *graph.UncoverableError
	errors.As(err, &ue)
	return ue.Left
}

// coverRule is a baseline's cover, run on both phases of
// buildTwoPhase: lefts are ascending lists of rights (a VM's ToRs, then a
// chosen ToR's admitted OPS uplinks), and out weighs a right by its
// outgoing connections (a ToR's uplinks, an OPS's optical degree) for
// the rules that use it.
type coverRule func(lefts [][]topology.NodeID, out func(topology.NodeID) float64) ([]topology.NodeID, error)

// buildTwoPhase is the baselines' two-phase construction: cover the
// group's VMs by ToRs, then the chosen ToRs by the OPSs allowOPS admits,
// with the same rule.
func buildTwoPhase(topo *topology.Topology, vms []topology.NodeID, allowOPS map[topology.NodeID]bool, cover coverRule) (AL, error) {
	_, lefts, err := vmToRs(topo, vms)
	if err != nil {
		return AL{}, err
	}
	tors, err := cover(lefts, torUplinks(topo))
	if err != nil {
		return AL{}, fmt.Errorf("cluster: phase 1: %w", err)
	}
	if lefts, err = topo.ToROPSBipartite(tors, allowOPS); err != nil {
		return AL{}, fmt.Errorf("cluster: phase 2: %w", err)
	}
	degree := topo.OpticalDegrees()
	opss, err := cover(lefts, func(ops topology.NodeID) float64 { return float64(degree[ops]) })
	if err != nil {
		return AL{}, fmt.Errorf("%w: %v", ErrInsufficientOPS, err)
	}
	return AL{ToRs: tors, OPSs: opss}, nil
}

// GreedyBuilder runs classic greedy set cover in both phases.
type GreedyBuilder struct{}

// Name implements Builder.
func (GreedyBuilder) Name() string { return "greedy-setcover" }

// Build implements Builder.
func (GreedyBuilder) Build(topo *topology.Topology, vms []topology.NodeID, allowOPS map[topology.NodeID]bool) (AL, error) {
	return buildTwoPhase(topo, vms, allowOPS, func(lefts [][]topology.NodeID, _ func(topology.NodeID) float64) ([]topology.NodeID, error) {
		return graph.CoverMarginal(lefts, nil, nil)
	})
}

// RandomBuilder reproduces the random-selection construction of the
// authors' earlier work [15]. A nil RNG makes Build fail; pass a seeded
// source for reproducible baselines.
type RandomBuilder struct {
	RNG *rand.Rand
}

// Name implements Builder.
func (RandomBuilder) Name() string { return "random" }

// Build implements Builder.
func (rb RandomBuilder) Build(topo *topology.Topology, vms []topology.NodeID, allowOPS map[topology.NodeID]bool) (AL, error) {
	if rb.RNG == nil {
		return AL{}, fmt.Errorf("cluster: random builder: nil RNG")
	}
	return buildTwoPhase(topo, vms, allowOPS, func(lefts [][]topology.NodeID, _ func(topology.NodeID) float64) ([]topology.NodeID, error) {
		return graph.CoverRandom(lefts, rb.RNG)
	})
}

// ExactBuilder computes the per-phase optimum by branch and bound. It
// fails on instances larger than the limits in internal/graph; use it
// for ground truth in tests and the optimality-gap experiment (E4).
type ExactBuilder struct{}

// Name implements Builder.
func (ExactBuilder) Name() string { return "exact-per-phase" }

// Build implements Builder.
func (ExactBuilder) Build(topo *topology.Topology, vms []topology.NodeID, allowOPS map[topology.NodeID]bool) (AL, error) {
	return buildTwoPhase(topo, vms, allowOPS, func(lefts [][]topology.NodeID, _ func(topology.NodeID) float64) ([]topology.NodeID, error) {
		return graph.CoverExact(lefts)
	})
}

// DirectBuilder covers VMs directly by OPSs in a single phase: an OPS
// covers a VM when it uplinks any ToR the VM attaches to. Exact=true
// uses branch and bound (global minimum AL size — the lower bound for
// E4); otherwise greedy. The ToRs reported are all ToRs of the group
// that the chosen OPSs reach.
type DirectBuilder struct {
	Exact bool
}

// Name implements Builder.
func (d DirectBuilder) Name() string {
	if d.Exact {
		return "direct-exact"
	}
	return "direct-greedy"
}

// Build implements Builder.
func (d DirectBuilder) Build(topo *topology.Topology, vms []topology.NodeID, allowOPS map[topology.NodeID]bool) (AL, error) {
	_, torsOf, err := vmToRs(topo, vms)
	if err != nil {
		return AL{}, err
	}
	lefts := make([][]topology.NodeID, len(torsOf))
	for i, tors := range torsOf {
		uplinks, err := topo.ToROPSBipartite(tors, allowOPS)
		if err != nil {
			return AL{}, err
		}
		lefts[i] = slices.Concat(uplinks...)
		slices.Sort(lefts[i])
		lefts[i] = slices.Compact(lefts[i])
	}
	var ops []topology.NodeID
	if d.Exact {
		ops, err = graph.CoverExact(lefts)
	} else {
		ops, err = graph.CoverMarginal(lefts, nil, nil)
	}
	if err != nil {
		return AL{}, fmt.Errorf("%w: %v", ErrInsufficientOPS, err)
	}
	chosen := func(o topology.NodeID) bool {
		_, ok := slices.BinarySearch(ops, o)
		return ok
	}
	var tors []topology.NodeID
	for _, ts := range torsOf {
		for _, tor := range ts {
			if slices.ContainsFunc(topo.OPSsOfToR(tor), chosen) {
				tors = append(tors, tor)
			}
		}
	}
	slices.Sort(tors)
	return AL{ToRs: slices.Compact(tors), OPSs: ops}, nil
}

// VerifyAL checks that al actually connects every VM of the group: for
// each VM some attached ToR links to an OPS of the layer. It is the
// correctness oracle used by tests and experiments.
func VerifyAL(topo *topology.Topology, vms []topology.NodeID, al AL) bool {
	ops := al.OPSSet()
	for _, vm := range vms {
		ok := false
		for _, tor := range topo.ToRsOfVM(vm) {
			for _, o := range topo.OPSsOfToR(tor) {
				if ops[o] {
					ok = true
					break
				}
			}
			if ok {
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
