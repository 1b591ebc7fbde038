// Package resilience owns failure anticipation for the AL-VC
// orchestrator: standby paths precomputed at provision time so a
// data-path failure becomes a pure make-before-break rule swap, and the
// failure-set algebra the reconciler classifies rack-scale events
// against. The paper's central claim (§III) is that the abstraction
// layer localizes failure impact; this package makes the localized
// repair proactive — the alternate route already exists when the
// failure arrives, the way segment-routing NFV chains encode backup
// segments ahead of time.
//
// The package is deliberately free of orchestrator state: everything
// here is a pure function over the topology plus plain records, so the
// reconciler (internal/orch) can hold its own locks while calling in.
package resilience

import (
	"fmt"
	"slices"
	"time"

	"github.com/alvc/alvc/internal/spare"
	"github.com/alvc/alvc/internal/topology"
)

// FailureSet is one failure event classified against the topology. A
// rack-scale incident (a ToR plus its PMs, or a bundle of links) is
// classified as a whole, so each affected chain is reconciled exactly
// once instead of once per dead resource. Every list is ascending.
type FailureSet struct {
	// Failures are the dead nodes and links.
	topology.Failures
	// SRLGs is the union of shared-risk groups of the dead links. A live
	// link sharing a group with a dead one is suspect: standbys crossing
	// it are not trusted for a swap and get replanned instead.
	SRLGs []int
	// Suspect is every link implicated by the event: the dead links plus
	// every link sharing a shared-risk group with one. Classifiers probe
	// the reverse index with it, so a batch's topology walk happens once,
	// not once per shard.
	Suspect []topology.LinkID
}

// Classify builds the failure set of f: the dead links' shared-risk
// groups and the suspect links, read from the topology's group index
// (SRLGLinks), never walking the link table. The set holds f's lists —
// with no risk group its Suspect is f's links — so it is valid while
// they are.
func Classify(topo *topology.Topology, f topology.Failures) FailureSet {
	links := f.Links()
	var groups []int
	for _, l := range links {
		if link := topo.Link(l); link != nil {
			groups = append(groups, link.SRLG...)
		}
	}
	suspect := links
	if len(groups) > 0 {
		slices.Sort(groups)
		groups = slices.Compact(groups)
		suspect = slices.Clone(links)
		for _, g := range groups {
			suspect = append(suspect, topo.SRLGLinks(g)...)
		}
		slices.Sort(suspect)
		suspect = slices.Compact(suspect)
	}
	return FailureSet{
		Failures: f,
		SRLGs:    groups,
		Suspect:  suspect,
	}
}

// HitsAnySRLG reports whether any of the given groups is in the failure
// set's shared-risk union.
func (f FailureSet) HitsAnySRLG(groups []int) bool {
	if len(f.SRLGs) == 0 {
		return false
	}
	for _, g := range groups {
		if _, ok := slices.BinarySearch(f.SRLGs, g); ok {
			return true
		}
	}
	return false
}

// virtualHop reports whether the hop is a VM↔hosting-PM edge, which has
// no Link record (the routing graph synthesizes it).
func virtualHop(a, b *topology.Node) bool {
	return (a.Kind == topology.KindVM && a.Host == b.ID) ||
		(b.Kind == topology.KindVM && b.Host == a.ID)
}

// PathAlive reports whether every node on the path is live and every
// consecutive physical hop still has a live link. It is an O(path)
// walk — no graph search — which is what lets a standby swap run with
// zero shortest-path computations at recovery time.
func PathAlive(topo *topology.Topology, path []topology.NodeID) bool {
	if len(path) == 0 {
		return false
	}
	for _, id := range path {
		n := topo.Node(id)
		if n == nil || n.Down {
			return false
		}
	}
	for i := 0; i+1 < len(path); i++ {
		a, b := topo.Node(path[i]), topo.Node(path[i+1])
		if virtualHop(a, b) {
			continue
		}
		if topo.LinkBetween(path[i], path[i+1]) == nil {
			return false
		}
	}
	return true
}

// Standby is one chain's precomputed alternate route: it visits the
// same endpoints and VNF hosts as the primary, over transit nodes and
// links chosen to be disjoint from the primary wherever the topology
// allows. The record is immutable once planned.
type Standby struct {
	// Path is the full alternate route src VM → VNF hosts → dst VM.
	Path []topology.NodeID
	// Links are the physical link IDs along Path (virtual VM hops
	// skipped), kept so link failures index straight to the standby.
	Links []topology.LinkID
	// Disjoint reports full transit-node, link, and shared-risk-group
	// disjointness from the primary at plan time — "disjoint" means
	// survivable, so sharing a cable tray with the primary disqualifies.
	// A non-disjoint standby still helps: its validity is re-checked
	// against the live topology before any swap.
	Disjoint bool
	// Confined reports whether every OPS on the standby belongs to the
	// chain's own slice.
	Confined bool
	// SRLGs is the deduplicated union of the standby links' shared-risk
	// groups, cached at plan time so failure classification can probe
	// risk exposure without a topology walk.
	SRLGs []int
	// PlannedAt records when this standby was (re)planned — surfaced in
	// the API so operators can see how fresh a chain's protection is.
	PlannedAt time.Time
}

// Clone returns a deep copy: the smallest block that holds its lists,
// else the record and an array per list (unused arrays cost more bytes).
func (s *Standby) Clone() *Standby {
	if s == nil {
		return nil
	}
	switch s.BlockNodes() {
	case 7:
		return new(Block7).Copy(s)
	case 9:
		return new(Block9).Copy(s)
	case 11:
		return new(Block11).Copy(s)
	case 13:
		return new(Block13).Copy(s)
	case 15:
		return new(Block15).Copy(s)
	}
	cp := *s
	cp.Path, cp.Links, cp.SRLGs = CopyInto(nil, s.Path), CopyInto(nil, s.Links), CopyInto(nil, s.SRLGs)
	return &cp
}

// The standby blocks are a Standby and arrays for its lists in one
// allocation (192 to 320 bytes), no more than a record and an array per
// list take for a route between two VMs of n nodes over n-3 links: a
// two-NF chain's (7), a three-NF chain's (11), routes around a cut tray.
type (
	Block7 struct {
		sb    Standby
		path  [7]topology.NodeID
		links [4]topology.LinkID
	}
	Block9 struct {
		sb    Standby
		path  [9]topology.NodeID
		links [6]topology.LinkID
	}
	Block11 struct {
		sb    Standby
		path  [11]topology.NodeID
		links [8]topology.LinkID
	}
	Block13 struct {
		sb    Standby
		path  [13]topology.NodeID
		links [10]topology.LinkID
	}
	Block15 struct {
		sb    Standby
		path  [15]topology.NodeID
		links [12]topology.LinkID
	}
)

// BlockNodes returns the node room of the smallest block that holds s's
// lists, the one Clone gives it: 7 for nil, 0 when none does.
func (s *Standby) BlockNodes() int {
	if s == nil {
		return 7
	}
	n := max(len(s.Path), len(s.Links)+3, 7)
	if n += 1 - n%2; n > 15 {
		return 0
	}
	return n
}

// Copy fills b with a deep copy of s and returns it (nil for nil); SRLGs,
// nil on most topologies, and a list b cannot hold get arrays of their own.
func (b *Block7) Copy(s *Standby) *Standby  { return copyBlock(&b.sb, b.path[:], b.links[:], s) }
func (b *Block9) Copy(s *Standby) *Standby  { return copyBlock(&b.sb, b.path[:], b.links[:], s) }
func (b *Block11) Copy(s *Standby) *Standby { return copyBlock(&b.sb, b.path[:], b.links[:], s) }
func (b *Block13) Copy(s *Standby) *Standby { return copyBlock(&b.sb, b.path[:], b.links[:], s) }
func (b *Block15) Copy(s *Standby) *Standby { return copyBlock(&b.sb, b.path[:], b.links[:], s) }

func copyBlock(sb *Standby, path []topology.NodeID, links []topology.LinkID, s *Standby) *Standby {
	if s == nil {
		return nil
	}
	*sb = *s
	sb.Path, sb.Links, sb.SRLGs = CopyInto(path, s.Path), CopyInto(links, s.Links), CopyInto(nil, s.SRLGs)
	return sb
}

// CopyInto copies src into arr if it fits, else into its own array, and
// clips the copy so an append reallocates; an empty src copies to nil.
func CopyInto[T any](arr, src []T) []T {
	switch {
	case len(src) == 0:
		return nil
	case len(src) <= len(arr):
		return arr[:copy(arr, src):len(src)]
	}
	return slices.Clip(slices.Clone(src))
}

// appendLinkSRLGs appends the links' shared-risk groups not yet in out,
// in first-seen order. The lists are a handful of entries, so a linear
// scan dedupes them.
func appendLinkSRLGs(out []int, topo *topology.Topology, links []topology.LinkID) []int {
	for _, l := range links {
		link := topo.Link(l)
		if link == nil {
			continue
		}
		for _, g := range link.SRLG {
			if !slices.Contains(out, g) {
				out = append(out, g)
			}
		}
	}
	return out
}

// PathFinder answers the standby planner's one question; it is the
// corner of the SDN controller the planner needs
// (sdn.Controller.AppendRouteAvoiding).
type PathFinder interface {
	// AppendRouteAvoiding appends to buf the route through stops in
	// order, each leg crossing the fewest of avoid's nodes and links and
	// the cheapest among those, inside pool when that restricts, and to
	// links the links the route crosses (PathLinks of the route).
	AppendRouteAvoiding(buf []topology.NodeID, links []topology.LinkID, stops []topology.NodeID, pool topology.Pool, avoid topology.Avoid) ([]topology.NodeID, []topology.LinkID, error)
}

// Primary is the route a standby protects, as the chain's record holds
// it.
type Primary struct {
	// Path is the primary route src VM → VNF hosts → dst VM.
	Path []topology.NodeID
	// Links are Path's physical links (PathLinks), which the record keeps
	// from its last commit; nil has the planner enumerate them.
	Links []topology.LinkID
	// Stops are the waypoints every route of the chain visits, in order:
	// the src VM, its host, the VNF hosts, the dst VM's host, the dst VM.
	Stops []topology.NodeID
	// Slice holds the chain's slice OPSs.
	Slice []topology.NodeID
}

// PlanStandby computes a standby route for a chain whose primary path
// visits the given stops (src, VNF hosts, dst) in order: it is
// PlanStandbyAvoiding with no failure domain, for a chain whose slice is
// the OPSs of sliceOPS, after checking its arguments. k is
// vestigial: it was the width of the k-shortest search this planner used
// to run and is only checked to be positive.
func PlanStandby(f PathFinder, topo *topology.Topology, primary []topology.NodeID, stops []topology.NodeID, sliceOPS topology.NodeSet, k int, allow topology.Pool) (*Standby, error) {
	if f == nil || topo == nil {
		return nil, fmt.Errorf("resilience: plan standby: nil finder or topology")
	}
	if k <= 0 {
		return nil, fmt.Errorf("resilience: plan standby: k must be positive, got %d", k)
	}
	return PlanStandbyAvoiding(f, topo, Primary{Path: primary, Stops: stops, Slice: sliceOPS}, allow, nil)
}

// PlanStandbyAvoiding computes a standby route for a chain whose primary
// path visits p.Stops in order. Per segment the finder answers one
// question: the cheapest route to the next stop that crosses the fewest
// of the primary's transit nodes, the primary's links, and the links
// sharing a risk group with them. Stops themselves are shared by
// construction — the standby must still visit every VNF. Equal-cost
// choices are rotated by the chain's first slice OPS
// (topology.Avoid.Spread), so the standbys of a fleet spread over the
// spare fabric instead of piling onto its lowest-ID links, and the same
// chain always gets the same standby.
//
// domainSRLGs — a failure domain's shared-risk groups, nil outside a
// domain's group — are added to the primary's own: links in any of them are
// avoided like the primary's links, and a standby forced onto one reports
// Disjoint=false. With nil the plan depends on the chain alone.
//
// The result is best-effort: the planner counts what the route still
// shares with the primary, and when that is not zero — no fully
// disjoint route exists — returns it with Disjoint=false; the
// reconciler's liveness check decides at recovery time whether it
// survived the actual failure. An error means no route exists at all
// for some segment.
//
// allow, when it restricts, keeps every segment to its OPSs — sharded
// orchestrators pass their shard's OPS pool so protection routes stay
// inside the shard's partition. The zero Pool searches the whole
// topology.
//
// A re-plan whose segments are all memo hits is a few microseconds, so
// it derives each fact once: the primary's links come from the record,
// the standby's with the route, the sets to avoid are built in pooled
// scratch and tested against marks, and the Standby is all it allocates
// (one block, Clone's; its risk groups too, on a topology that models
// any).
func PlanStandbyAvoiding(f PathFinder, topo *topology.Topology, p Primary, allow topology.Pool, domainSRLGs []int) (*Standby, error) {
	sb, _, err := PlanStandbyWithin(f, topo, p, allow, false, domainSRLGs)
	return sb, err
}

// PlanStandbyWithin is PlanStandbyAvoiding; with fallback, when allow
// restricts and its plan fails or is not disjoint, it plans over the whole
// fabric too (fellBack) and keeps that plan if disjoint or allow's failed.
// Only the plan kept is copied out of the scratch.
func PlanStandbyWithin(f PathFinder, topo *topology.Topology, p Primary, allow topology.Pool, fallback bool, domainSRLGs []int) (sb *Standby, fellBack bool, err error) {
	sc := scratches.Get()
	defer sc.release()
	plan, err := sc.plan(f, topo, p, allow, domainSRLGs)
	if fallback && allow.OPS != nil && (err != nil || !plan.Disjoint) {
		wc := scratches.Get()
		defer wc.release()
		wide, wideErr := wc.plan(f, topo, p, topology.Pool{}, domainSRLGs)
		if fellBack = true; err != nil || (wideErr == nil && wide.Disjoint) {
			plan, err = wide, wideErr
		}
	}
	if err != nil {
		return nil, fellBack, err
	}
	sb = plan.Clone()
	if topo.HasSRLGs() {
		sb.SRLGs = appendLinkSRLGs(nil, topo, sb.Links)
	}
	return sb, fellBack, nil
}

// plan is PlanStandbyAvoiding's search, into sc: the plan's lists are
// sc's until release.
func (sc *planScratch) plan(f PathFinder, topo *topology.Topology, p Primary, allow topology.Pool, domainSRLGs []int) (Standby, error) {
	if len(p.Path) == 0 || len(p.Stops) < 2 {
		return Standby{}, fmt.Errorf("resilience: plan standby: primary and stops required")
	}
	// Primary transit nodes (everything that is not a mandatory stop)
	// and primary links are what the standby tries to avoid.
	avoid := topology.Avoid{Nodes: sc.nodes[:0], Links: p.Links, Spread: spreadKey(p.Slice, p.Stops)}
	for _, n := range p.Path {
		if !slices.Contains(p.Stops, n) {
			avoid.Nodes = append(avoid.Nodes, n)
			sc.marks.set(int(n))
		}
	}
	sc.nodes = avoid.Nodes
	if avoid.Links == nil {
		var ok bool
		if avoid.Links, ok = topo.AppendPathLinks(sc.links[:0], p.Path); !ok {
			return Standby{}, fmt.Errorf("resilience: plan standby: a hop of the primary joins no link")
		}
		sc.links = avoid.Links
	}
	for _, l := range avoid.Links {
		sc.linkMarks.set(int(l))
	}
	// Shared-risk groups of the primary and of the failure domain: a
	// link in the same group (same cable tray, same power feed) would die
	// with the primary, so it is avoided, and counts as overlap, even
	// though the link itself is distinct.
	srlgs := topo.HasSRLGs()
	if srlgs {
		sc.groups = appendLinkSRLGs(append(sc.groups[:0], domainSRLGs...), topo, avoid.Links)
		grown := append(sc.grown[:0], avoid.Links...)
		for _, g := range sc.groups {
			for _, l := range topo.SRLGLinks(g) {
				if !sc.linkMarks.has(int(l)) {
					grown = append(grown, l)
					sc.linkMarks.set(int(l))
				}
			}
		}
		avoid.Links, sc.grown = grown, grown
	}
	sc.marked = avoid.Links

	route, links, err := f.AppendRouteAvoiding(sc.route[:0], sc.routeLinks[:0], p.Stops, allow, avoid)
	sc.route, sc.routeLinks = route, links
	if err != nil {
		return Standby{}, fmt.Errorf("resilience: plan standby: %w", err)
	}
	if len(route) == 0 {
		return Standby{}, fmt.Errorf("resilience: plan standby: degenerate stop list")
	}
	// The acceptance test, independent of how the route was found: what
	// does it still share with the primary?
	overlap := 0
	confined := true
	for _, id := range route {
		if sc.marks.has(int(id)) {
			overlap++
		}
		if confined && !slices.Contains(p.Slice, id) {
			if n := topo.Node(id); n != nil && n.Kind == topology.KindOPS {
				confined = false
			}
		}
	}
	for _, l := range links {
		if sc.linkMarks.has(int(l)) {
			overlap++
		}
	}
	return Standby{Path: route, Links: links, Disjoint: overlap == 0, Confined: confined, PlannedAt: time.Now()}, nil
}

// spreadKey is what rotates a chain's equal-cost choices: its first
// slice OPS — a node no other chain owns — or, for a chain without a
// slice, its source.
func spreadKey(slice, stops []topology.NodeID) topology.NodeID {
	if len(slice) == 0 {
		return stops[0]
	}
	return slices.Min(slice)
}

// planScratch is what one plan works in and throws away: the avoided
// nodes, the primary's links when the record has none, the avoided links
// grown by risk group, the route and its links before the standby's own
// copies are cut from them, and the marks the overlap test reads — of
// nodes, and of marked, the avoided links.
type planScratch struct {
	nodes, route             []topology.NodeID
	links, grown, routeLinks []topology.LinkID
	groups                   []int
	marks, linkMarks         bitset
	marked                   []topology.LinkID
}

var scratches spare.Pool[planScratch]

// release clears the marks the plan set and pools the scratch.
func (sc *planScratch) release() {
	for _, n := range sc.nodes {
		sc.marks.clear(int(n))
	}
	for _, l := range sc.marked {
		sc.linkMarks.clear(int(l))
	}
	sc.nodes, sc.marked = sc.nodes[:0], nil
	scratches.Put(sc)
}

// bitset is a set of small non-negative integers: dense IDs.
type bitset []uint64

func (b *bitset) set(i int) {
	if w := i >> 6; w >= len(*b) {
		*b = append(*b, make([]uint64, w+1-len(*b))...)
	}
	(*b)[i>>6] |= 1 << (i & 63)
}

func (b bitset) has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(i&63)) != 0
}

func (b bitset) clear(i int) {
	if w := i >> 6; w < len(b) {
		b[w] &^= 1 << (i & 63)
	}
}
