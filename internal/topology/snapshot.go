package topology

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/alvc/alvc/internal/graph"
)

// Snapshot is an epoch-versioned routing view of the topology: a frozen
// CSR graph plus the metadata needed to answer restricted (in-slice)
// searches without rebuilding anything. One snapshot is cached against
// the topology's *structural* generation — an OPS restriction is laid
// out per search (Restrict), so every restriction set shares it.
//
// The graph's vertices are the switches and the physical machines: a VM
// is never one. The fabric routes host to host, and a search with a VM
// end runs from (or to) the VM's host and writes the VM one 0.1 µs hop
// beyond it, so VM churn touches no routing state at all.
//
// Liveness is not a build-time dimension either: the frozen graph
// contains every switch, machine and link, up or down, and a durable
// graph.LiveMask overlay hides the dead ones from every search. SetDown
// patches the overlay in place, so a failure storm costs zero graph
// rebuilds; only structural mutations (add switch/PM/link, latency,
// SRLG) invalidate the cache.
//
// A Snapshot is safe for concurrent use. Searches hold the overlay's
// read lock for their whole run, so each observes either all or none of
// a batch liveness patch, and report the overlay's content digest as
// they read it (LiveDigest): the live state their answer is exact for.
// Where a VM sits is read from the topology at search time, under the
// caller's lock that orders searches with VM churn.
type Snapshot struct {
	structGen uint64
	topo      *Topology
	frozen    *graph.Frozen
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
	OPS    NodeSet
	digest uint64
}

// NewPool makes the pool of an OPS set. nil (no restriction) and the
// empty set digest apart from each other and from any real pool.
func NewPool(ops NodeSet) Pool {
	if ops == nil {
		return Pool{}
	}
	// Members are mixed one by one and summed: nothing is sorted or
	// allocated.
	h := uint64(1)
	for _, n := range ops {
		h += graph.Mix64(uint64(n))
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
func (s *Snapshot) Restrict(restrict NodeSet) *Restriction {
	if restrict == nil {
		return nil
	}
	r := s.restrictions.Get().(*Restriction)
	r.Reset()
	for _, id := range restrict {
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
// appending the path to buf; on error buf comes back as it was. A VM end
// is searched at its host (hostOf) and written beyond it (hostRoute).
func (s *Snapshot) AppendShortestPathIn(buf []NodeID, src, dst NodeID, r *Restriction) ([]NodeID, float64, error) {
	from, to, err := s.ends(src, dst)
	if err != nil {
		return buf, 0, err
	}
	out, w, err := graph.ShortestPathIn(s.frozen, buf, graph.VertexID(from), graph.VertexID(to), r, s.mask)
	if err != nil {
		return buf, 0, err
	}
	out, hops := hostRoute(out, len(buf), src, dst)
	return out, w + hops, nil
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
// A VM end is searched at its host and written beyond it, as in
// AppendShortestPathIn. Unknown nodes and links in avoid, VMs included,
// are ignored.
func (s *Snapshot) AppendPathAvoiding(buf []NodeID, src, dst NodeID, r *Restriction, avoid Avoid) ([]NodeID, uint64, error) {
	from, to, err := s.ends(src, dst)
	if err != nil {
		return buf, 0, err
	}
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
	out, live, err := graph.ShortestPathAvoiding(s.frozen, buf, graph.VertexID(from), graph.VertexID(to), r, s.mask, set, graph.VertexID(avoid.Spread))
	if err != nil {
		return buf, live, err
	}
	out, _ = hostRoute(out, len(buf), src, dst)
	return out, live, nil
}

// vmHopMicros is the weight of a VM's hop to its host.
const vmHopMicros = 0.1

// hostOf resolves a route end to the vertex the fabric routes to: a VM
// is reached by its host's local hop, so a VM end is its host, and any
// other node is itself. up is false for a VM that is down or whose host
// is down or missing.
func (s *Snapshot) hostOf(id NodeID) (vertex NodeID, up bool) {
	n := s.topo.Node(id)
	if n == nil || n.Kind != KindVM {
		return id, true
	}
	host := s.topo.Node(n.Host)
	return n.Host, !n.Down && host != nil && !host.Down
}

// ends resolves both ends of a route (hostOf): the vertices to search
// between, or ErrNoPath when a VM end is not up.
func (s *Snapshot) ends(src, dst NodeID) (from, to NodeID, err error) {
	from, upS := s.hostOf(src)
	to, upD := s.hostOf(dst)
	if !upS || !upD {
		return 0, 0, fmt.Errorf("%w from %d to %d", graph.ErrNoPath, src, dst)
	}
	return from, to, nil
}

// hostRoute turns the route between src's and dst's vertices (ends),
// written to buf from start, into the route between src and dst: a VM
// end sits one hop beyond its host, and hops is those hops' weight. A
// route from a node to itself is that node.
func hostRoute(buf []NodeID, start int, src, dst NodeID) (_ []NodeID, hops float64) {
	if src == dst {
		return append(buf[:start], src), 0
	}
	if buf[start] != src {
		buf = slices.Insert(buf, start, src)
		hops += vmHopMicros
	}
	if buf[len(buf)-1] != dst {
		buf = append(buf, dst)
		hops += vmHopMicros
	}
	return buf, hops
}

// AppendHostHop answers, without a search, a leg between a VM and the PM
// hosting it: [src, dst] is the only route there is, read off the node
// table. ok reports whether src and dst are such a pair; when they are
// and the VM is not up (hostOf), err is the search's ErrNoPath.
func (s *Snapshot) AppendHostHop(buf []NodeID, src, dst NodeID) (out []NodeID, ok bool, err error) {
	vm, host := src, dst
	if at, _ := s.hostOf(vm); at == vm {
		vm, host = dst, src
	}
	at, up := s.hostOf(vm)
	if at == vm || at != host {
		return buf, false, nil
	}
	if !up {
		return buf, true, fmt.Errorf("%w from %d to %d", graph.ErrNoPath, src, dst)
	}
	return append(buf, src, dst), true, nil
}

// KShortestPaths returns up to k loopless paths between two nodes in
// nondecreasing weight order over the snapshot, honoring an OPS
// restriction set (nil = unrestricted) and the liveness overlay, and the
// overlay digest the search ran under.
func (s *Snapshot) KShortestPaths(src, dst NodeID, k int, restrict NodeSet) ([][]NodeID, []float64, uint64, error) {
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
// mutation — structural, liveness or VM churn — bumps it; the derived
// caches (adjacency filtered on Down flags, LiveVMs) are valid iff their
// generation matches.
func (t *Topology) Generation() uint64 { return atomic.LoadUint64(&t.gen) }

// StructuralGeneration returns the structural mutation epoch: switch,
// PM and link adds, latency and SRLG edits bump it; liveness transitions
// and VM churn do not, because neither changes the routing graph. The
// cached routing snapshot is valid iff its structural generation matches
// — liveness lands on it as an overlay patch, and a VM is reached by its
// host at search time.
func (t *Topology) StructuralGeneration() uint64 { return atomic.LoadUint64(&t.structGen) }

// bumpGeneration records a mutation the routing graph does not see —
// liveness, VM churn: the derived caches invalidate, the cached routing
// snapshot survives (a liveness caller patches its overlay). Atomic so
// concurrent readers of Generation never race even outside the
// orchestrator's topology lock.
func (t *Topology) bumpGeneration() { atomic.AddUint64(&t.gen, 1) }

// bumpStructural records a structural mutation, invalidating both the
// derived caches and the cached routing snapshot.
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

// RoutingSnapshot returns the cached routing snapshot, rebuilding it
// only if the topology *structurally* mutated since the last build;
// liveness transitions are patched into the cached snapshot in place and
// never rebuild, and VM churn does not touch it. Restriction sets go to
// the snapshot's search methods, so restricted searches share the one
// cache entry. A warm fetch takes no lock. GraphOptions are ignored.
func (t *Topology) RoutingSnapshot(...GraphOptions) *Snapshot {
	if s := t.snap.Load(); s != nil && s.structGen == t.StructuralGeneration() {
		atomic.AddUint64(&t.snapHits, 1)
		return s
	}
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	sg := t.StructuralGeneration()
	if s := t.snap.Load(); s != nil && s.structGen == sg { // built while this caller waited
		atomic.AddUint64(&t.snapHits, 1)
		return s
	}
	s := t.buildSnapshot(sg)
	t.snap.Store(s)
	return s
}

// buildSnapshot constructs a snapshot from scratch straight from the
// node and link tables: the full graph — down nodes and links included —
// plus a liveness overlay reflecting the current down-state. Every node
// but a VM is a vertex. Every link between two vertices is an edge
// weighing its latency, tagged with its ID so the overlay can address
// its arcs — parallel links included. Caller holds snapMu.
func (t *Topology) buildSnapshot(structGen uint64) *Snapshot {
	atomic.AddUint64(&t.builds, 1)
	routed := func(n *Node) bool { return n != nil && n.Kind != KindVM }
	ids := make([]graph.VertexID, 0, t.live)
	for _, n := range t.nodes {
		if routed(n) {
			ids = append(ids, graph.VertexID(n.ID))
		}
	}
	edges := make([]graph.Edge, 0, len(t.links)-1)
	for _, l := range t.links[1:] {
		// A negative latency (Validate rejects it) is no edge: the searches
		// need non-negative weights.
		if routed(t.Node(l.From)) && routed(t.Node(l.To)) && l.LatencyMicros >= 0 {
			edges = append(edges, graph.Edge{From: graph.VertexID(l.From), To: graph.VertexID(l.To), Weight: l.LatencyMicros, Tag: int64(l.ID)})
		}
	}
	f := graph.NewFrozen(false, ids, edges)
	s := &Snapshot{
		structGen: structGen,
		topo:      t,
		frozen:    f,
		mask:      f.NewLiveMask(),
		linkArcs:  make([]int32, 2*len(t.links)),
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
	clear(t.patchVertex)
	arcs := t.patchArcs[:0]
	for i, id := range f.Vertices() {
		if t.nodes[id].Down {
			t.patchVertex[int32(i)] = true
		}
	}
	for _, l := range t.links[1:] {
		if l.Down {
			arcs = append(arcs, s.arcsOf(l.ID)...)
		}
	}
	t.patchArcs = arcs
	if len(t.patchVertex) > 0 || len(arcs) > 0 {
		s.mask.Patch(t.patchVertex, arcs, true)
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

// applyLiveness patches the down-state of f's nodes and links into the
// cached snapshot in place — O(affected arcs), zero graph rebuilds, no
// allocation. A stale-generation snapshot is skipped (its next fetch
// rebuilds from current state anyway), and so are VMs, which are no
// vertices: a search reads their state off the node table.
func (t *Topology) applyLiveness(f Failures, down bool) {
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	atomic.AddUint64(&t.livePatches, 1)
	s := t.snap.Load()
	if s == nil || s.structGen != t.StructuralGeneration() {
		return
	}
	clear(t.patchVertex)
	for _, id := range f.nodes {
		if i, ok := s.frozen.IndexOf(graph.VertexID(id)); ok {
			t.patchVertex[i] = down
		}
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
