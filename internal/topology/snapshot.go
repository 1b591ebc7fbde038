package topology

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/alvc/alvc/internal/graph"
)

// Snapshot is an epoch-versioned routing view of the topology: a frozen
// CSR graph plus the metadata needed to answer restricted (in-slice)
// searches without rebuilding anything. Snapshots are cached per
// IncludeVMs value against the topology's *structural* generation — an
// OPS restriction is laid out per search (Restrict), so every
// restriction set shares the same cached graph.
//
// Liveness is not a build-time dimension: the frozen graph contains
// every node and link, up or down, and a durable graph.LiveMask overlay
// hides the dead ones from every search. SetDown patches the overlay of
// each cached snapshot in place, so a failure storm costs zero graph rebuilds; only structural
// mutations (add node/link, VM churn, latency, SRLG) invalidate the
// cache.
//
// A Snapshot is safe for concurrent use. Searches hold the overlay's
// read lock for their whole run, so each observes either all or none of
// a batch liveness patch, and report the overlay's content digest as
// they read it (LiveDigest): the live state their answer is exact for.
type Snapshot struct {
	structGen  uint64
	includeVMs bool
	frozen     *graph.Frozen
	// mask is the durable liveness overlay: down vertices by dense index
	// and down link arcs by CSR position.
	mask *graph.LiveMask
	// linkArcs holds each included link's two CSR arc positions, one per
	// direction, at 2*ID and 2*ID+1 (-1 for a link the snapshot leaves
	// out), resolved once at build time via edge tags so a liveness patch
	// is O(affected arcs).
	linkArcs []int32
	// restrictions and avoidSets pool the per-search buffers (Restrict,
	// AppendPathAvoiding), both sized to this snapshot's graph.
	restrictions sync.Pool
	avoidSets    sync.Pool
}

// Generation returns the structural generation the snapshot was built
// at. Liveness transitions do not advance it.
func (s *Snapshot) Generation() uint64 { return s.structGen }

// LiveDigest returns the content digest of the snapshot's liveness
// overlay now (graph.LiveMask.Digest): 0 with everything up, and the
// same value whenever the same nodes and links are down, however the
// fabric got there. Read without a lock.
func (s *Snapshot) LiveDigest() uint64 { return s.mask.Digest() }

// Graph returns the frozen CSR graph backing the snapshot. It contains
// every node and link regardless of liveness; direct searches on it
// bypass the down-overlay — use the Snapshot search methods instead.
func (s *Snapshot) Graph() *graph.Frozen { return s.frozen }

// Pool is an OPS restriction set — the OPSs a search may cross, a nil
// OPS meaning every one — carried with its content digest, which keys
// memoized searches under the set. The digest is computed once, by
// NewPool, so asking a question under a pool never walks the set; the
// set must not change after. The zero Pool restricts nothing.
type Pool struct {
	OPS    map[NodeID]bool
	digest uint64
}

// NewPool makes the pool of an OPS set. Only members mapped to true
// count, as they do for searches; nil (no restriction) and the empty set
// digest apart from each other and from any real pool.
func NewPool(ops map[NodeID]bool) Pool {
	if ops == nil {
		return Pool{}
	}
	// Members are mixed one by one and summed: the map's iteration order
	// does not matter and nothing is sorted or allocated.
	h := uint64(1)
	for n, ok := range ops {
		if ok {
			h += graph.Mix64(uint64(n))
		}
	}
	return Pool{OPS: ops, digest: h}
}

// Digest returns the pool's content digest: 0 for the zero Pool.
func (p Pool) Digest() uint64 { return p.digest }

// Restriction is an OPS restriction set laid out over one snapshot as the
// admitted OPSs' own arcs: built once from their arc lists, then read by
// any number of searches, each of which walks the slice's arcs and never
// the other OPSs' uplinks. A nil *Restriction restricts nothing.
type Restriction = graph.Restriction

// Restrict lays out an OPS restriction set (nil = unrestricted, which yields
// nil) at the cost of the admitted OPSs' degrees. Hand the result back
// with Release once the searches are done.
func (s *Snapshot) Restrict(restrict map[NodeID]bool) *Restriction {
	if restrict == nil {
		return nil
	}
	r := s.restrictions.Get().(*Restriction)
	r.Reset()
	for id, ok := range restrict {
		if !ok {
			continue
		}
		if i, found := s.frozen.IndexOf(graph.VertexID(id)); found {
			r.Admit(i)
		}
	}
	r.Seal()
	return r
}

// Release returns a Restriction obtained from Restrict to the snapshot.
func (s *Snapshot) Release(r *Restriction) {
	if r != nil {
		s.restrictions.Put(r)
	}
}

// AppendShortestPathIn is ShortestPath under a restriction already laid
// out by Restrict, for callers that search several times under one set,
// appending the path to buf; on error buf comes back as it was.
func (s *Snapshot) AppendShortestPathIn(buf []NodeID, src, dst NodeID, r *Restriction) ([]NodeID, float64, error) {
	return graph.ShortestPathIn(s.frozen, buf, graph.VertexID(src), graph.VertexID(dst), r, s.mask)
}

// Avoid is what a standby search should stay off: the transit nodes and
// links of the route it protects (links sharing a risk group with them
// included), and the node that rotates its choice among equal paths.
type Avoid struct {
	Nodes []NodeID
	Links []LinkID
	// Spread picks among equally good paths: see
	// graph.ShortestPathAvoiding. Zero prefers the lowest IDs.
	Spread NodeID
}

// AppendPathAvoiding appends to buf the src→dst path that crosses the
// fewest of avoid's nodes and links and, among those, has the least
// weight (graph.ShortestPathAvoiding), honoring the restriction and the
// liveness overlay, and returns the overlay digest the search ran under.
// Unknown nodes and links in avoid are ignored.
func (s *Snapshot) AppendPathAvoiding(buf []NodeID, src, dst NodeID, r *Restriction, avoid Avoid) ([]NodeID, uint64, error) {
	var set *graph.AvoidSet
	if len(avoid.Nodes)+len(avoid.Links) > 0 {
		set = s.avoidSets.Get().(*graph.AvoidSet)
		defer func() {
			set.Reset()
			s.avoidSets.Put(set)
		}()
		for _, n := range avoid.Nodes {
			if i, ok := s.frozen.IndexOf(graph.VertexID(n)); ok {
				set.AddVertex(i)
			}
		}
		for _, l := range avoid.Links {
			set.AddArcs(s.arcsOf(l))
		}
	}
	return graph.ShortestPathAvoiding(s.frozen, buf, graph.VertexID(src), graph.VertexID(dst), r, s.mask, set, graph.VertexID(avoid.Spread))
}

// AppendHostHop answers, without a search, a leg between a VM and the PM
// hosting it: the VM hangs off its host by its one edge, so [src, dst]
// is the only route there is. ok reports whether src and dst are such a
// pair; when they are and either is down, err is the search's ErrNoPath.
func (s *Snapshot) AppendHostHop(buf []NodeID, src, dst NodeID) (out []NodeID, ok bool, err error) {
	si, okS := s.frozen.IndexOf(graph.VertexID(src))
	di, okD := s.frozen.IndexOf(graph.VertexID(dst))
	if !okS || !okD || !s.hostEdge(si, di) && !s.hostEdge(di, si) {
		return buf, false, nil
	}
	if s.mask.VertexDown(si) || s.mask.VertexDown(di) {
		return buf, true, fmt.Errorf("%w from %d to %d", graph.ErrNoPath, src, dst)
	}
	return append(buf, src, dst), true, nil
}

// hostEdge reports whether vm's only arc is a VM edge to host: the
// untagged kind buildSnapshot adds, every link's arcs carrying its ID
// (a graph with no link at all has no tags).
func (s *Snapshot) hostEdge(vm, host int32) bool {
	arc, ok := s.frozen.SoleArc(vm, host)
	tags := s.frozen.ArcTags()
	return ok && (tags == nil || tags[arc] == 0)
}

// KShortestPaths returns up to k loopless paths between two nodes in
// nondecreasing weight order over the snapshot, honoring an OPS
// restriction set (nil = unrestricted) and the liveness overlay, and the
// overlay digest the search ran under.
func (s *Snapshot) KShortestPaths(src, dst NodeID, k int, restrict map[NodeID]bool) ([][]NodeID, []float64, uint64, error) {
	r := s.Restrict(restrict)
	defer s.Release(r)
	vps, ws, digest, err := s.frozen.KShortestPathsIn(graph.VertexID(src), graph.VertexID(dst), k, r, s.mask)
	if err != nil {
		return nil, nil, digest, err
	}
	out := make([][]NodeID, len(vps))
	for i, vp := range vps {
		out[i] = toNodePath(vp)
	}
	return out, ws, digest, nil
}

func toNodePath(vp []graph.VertexID) []NodeID {
	if vp == nil {
		return nil
	}
	path := make([]NodeID, len(vp))
	for i, v := range vp {
		path[i] = NodeID(v)
	}
	return path
}

// Generation returns the topology's total mutation epoch. Every
// mutation — structural or liveness — bumps it; the derived adjacency
// caches (which filter on Down flags) are valid iff their generation
// matches.
func (t *Topology) Generation() uint64 { return atomic.LoadUint64(&t.gen) }

// StructuralGeneration returns the structural mutation epoch: node/link
// adds, VM churn, latency and SRLG edits bump it; liveness transitions
// do not. Cached routing snapshots are valid iff their structural
// generation matches — liveness lands on them as an overlay patch.
func (t *Topology) StructuralGeneration() uint64 { return atomic.LoadUint64(&t.structGen) }

// bumpGeneration records a liveness-only mutation: derived caches
// invalidate, cached routing snapshots survive (the caller patches
// their overlays). Atomic so concurrent readers of Generation never
// race even outside the orchestrator's topology lock.
func (t *Topology) bumpGeneration() { atomic.AddUint64(&t.gen, 1) }

// bumpStructural records a structural mutation, invalidating both the
// derived caches and all cached routing snapshots.
func (t *Topology) bumpStructural() {
	atomic.AddUint64(&t.structGen, 1)
	atomic.AddUint64(&t.gen, 1)
}

// GraphBuilds returns how many times a routing snapshot has been built
// from scratch. The fast-path contracts — zero rebuilds on unchanged
// topology, zero rebuilds during a failure storm — are asserted against
// this counter's delta.
func (t *Topology) GraphBuilds() uint64 { return atomic.LoadUint64(&t.builds) }

// SnapshotHits returns how many RoutingSnapshot calls were served from
// the warm cache without a rebuild — the routing fast path's hit
// counter, exposed alongside GraphBuilds so scrapers can compute a hit
// ratio.
func (t *Topology) SnapshotHits() uint64 { return atomic.LoadUint64(&t.snapHits) }

// LivenessPatches returns how many liveness transitions were patched
// into cached snapshots in place (one count per applyLiveness batch) —
// the storm fast path's "no rebuild happened here" counter.
func (t *Topology) LivenessPatches() uint64 { return atomic.LoadUint64(&t.livePatches) }

// RoutingSnapshot returns the cached routing snapshot for the options,
// rebuilding only if the topology *structurally* mutated since the last
// build with the same IncludeVMs value; liveness transitions are patched
// into the cached snapshot in place and never rebuild. Restriction sets
// go to the snapshot's search methods, so restricted searches share the
// unrestricted cache entry. A warm fetch takes no lock.
func (t *Topology) RoutingSnapshot(opts GraphOptions) *Snapshot {
	slot := &t.snaps[0]
	if opts.IncludeVMs {
		slot = &t.snaps[1]
	}
	if s := slot.Load(); s != nil && s.structGen == t.StructuralGeneration() {
		atomic.AddUint64(&t.snapHits, 1)
		return s
	}
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	sg := t.StructuralGeneration()
	if s := slot.Load(); s != nil && s.structGen == sg { // built while this caller waited
		atomic.AddUint64(&t.snapHits, 1)
		return s
	}
	s := t.buildSnapshot(opts.IncludeVMs, sg)
	slot.Store(s)
	return s
}

// buildSnapshot constructs a snapshot from scratch straight from the
// node and link tables: the full graph — down nodes and links included —
// plus a liveness overlay reflecting the current down-state. Every node
// but a VM is a vertex; with includeVMs so is each VM with a host, joined
// to it by a 0.1 µs edge tagged 0. Every link between two such non-VM
// nodes is an edge weighing its latency, tagged with its ID so the
// overlay can address its arcs — parallel links included. Caller holds
// snapMu.
func (t *Topology) buildSnapshot(includeVMs bool, structGen uint64) *Snapshot {
	atomic.AddUint64(&t.builds, 1)
	routed := func(n *Node) bool { return n != nil && n.Kind != KindVM }
	hosted := func(n *Node) bool { return includeVMs && n.Kind == KindVM && t.Node(n.Host) != nil }
	ids := make([]graph.VertexID, 0, t.live)
	for _, n := range t.nodes {
		if routed(n) || n != nil && hosted(n) {
			ids = append(ids, graph.VertexID(n.ID))
		}
	}
	edges := make([]graph.Edge, 0, len(t.links)-1+len(ids))
	for _, l := range t.links[1:] {
		// A negative latency (Validate rejects it) is no edge: the searches
		// need non-negative weights.
		if routed(t.Node(l.From)) && routed(t.Node(l.To)) && l.LatencyMicros >= 0 {
			edges = append(edges, graph.Edge{From: graph.VertexID(l.From), To: graph.VertexID(l.To), Weight: l.LatencyMicros, Tag: int64(l.ID)})
		}
	}
	for _, n := range t.nodes {
		if n != nil && hosted(n) {
			edges = append(edges, graph.Edge{From: graph.VertexID(n.ID), To: graph.VertexID(n.Host), Weight: 0.1})
		}
	}
	f := graph.NewFrozen(false, ids, edges)
	s := &Snapshot{
		structGen:  structGen,
		includeVMs: includeVMs,
		frozen:     f,
		mask:       f.NewLiveMask(),
		linkArcs:   make([]int32, 2*len(t.links)),
	}
	for i := range s.linkArcs {
		s.linkArcs[i] = -1
	}
	for pos, tag := range f.ArcTags() {
		if tag != 0 {
			i := 2 * tag
			if s.linkArcs[i] >= 0 {
				i++
			}
			s.linkArcs[i] = int32(pos)
		}
	}
	// Seed the overlay with the current liveness state.
	var vertex map[int32]bool
	var deadArcs []int32
	for _, n := range t.nodes {
		if n == nil || !t.effectiveDown(n) {
			continue
		}
		if i, ok := f.IndexOf(graph.VertexID(n.ID)); ok {
			if vertex == nil {
				vertex = make(map[int32]bool)
			}
			vertex[i] = true
		}
	}
	for _, l := range t.links[1:] {
		if l.Down {
			deadArcs = append(deadArcs, s.arcsOf(l.ID)...)
		}
	}
	if len(vertex) > 0 || len(deadArcs) > 0 {
		s.mask.Patch(vertex, deadArcs, true)
	}
	// The OPSs are what a Restriction may bar; down ones included, the
	// overlay hides them.
	opsVertex := make([]bool, f.VertexCount())
	for i, id := range f.Vertices() {
		opsVertex[i] = t.nodes[id].Kind == KindOPS
	}
	f.IndexRestrictable(opsVertex)
	s.restrictions.New = func() any { return f.NewRestriction() }
	s.avoidSets.New = func() any { return f.NewAvoidSet() }
	return s
}

// arcsOf returns the CSR positions of link l's two arcs: none for a link
// the snapshot leaves out or does not know.
func (s *Snapshot) arcsOf(l LinkID) []int32 {
	if i := 2 * int(l); i >= 0 && i+1 < len(s.linkArcs) && s.linkArcs[i] >= 0 {
		return s.linkArcs[i : i+2]
	}
	return nil
}

// effectiveDown reports whether a node should be invisible to routing:
// itself down, or (for a VM) hosted on a down or missing PM.
func (t *Topology) effectiveDown(n *Node) bool {
	if n.Down {
		return true
	}
	if n.Kind == KindVM {
		h := t.Node(n.Host)
		return h == nil || h.Down
	}
	return false
}

// applyLiveness patches the down-state of f's nodes and links into
// every current cached snapshot in place — O(affected arcs) per
// snapshot, zero graph rebuilds, no allocation. Stale-generation entries
// are skipped (their next fetch rebuilds from current state anyway).
func (t *Topology) applyLiveness(f Failures, down bool) {
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	atomic.AddUint64(&t.livePatches, 1)
	sg := t.StructuralGeneration()
	for i := range t.snaps {
		s := t.snaps[i].Load()
		if s == nil || s.structGen != sg {
			continue
		}
		clear(t.patchVertex)
		for _, id := range f.nodes {
			s.collectNodePatch(t, t.nodes[id], t.patchVertex)
		}
		arcs := t.patchArcs[:0]
		for _, l := range f.links {
			arcs = append(arcs, s.arcsOf(l)...)
		}
		t.patchArcs = arcs
		if len(t.patchVertex) > 0 || len(arcs) > 0 {
			s.mask.Patch(t.patchVertex, arcs, down)
		}
	}
}

// collectNodePatch records the node's effective down-state (and, for a
// PM in a VM-bearing snapshot, its hosted VMs' — a VM is reachable only
// through its host, and cold builds exclude VMs on down hosts). The VMs
// are the PM's host arcs in the CSR, the ones tagged 0.
func (s *Snapshot) collectNodePatch(t *Topology, n *Node, vertex map[int32]bool) {
	i, ok := s.frozen.IndexOf(graph.VertexID(n.ID))
	if !ok {
		return
	}
	vertex[i] = t.effectiveDown(n)
	if n.Kind != KindPhysicalMachine || !s.includeVMs {
		return
	}
	first, targets := s.frozen.ArcsOf(i)
	tags, ids := s.frozen.ArcTags(), s.frozen.Vertices()
	for k, vm := range targets {
		if tags == nil || tags[int(first)+k] == 0 {
			vertex[vm] = t.effectiveDown(t.nodes[ids[vm]])
		}
	}
}
