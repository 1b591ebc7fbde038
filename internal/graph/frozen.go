package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Frozen is an immutable compressed-sparse-row (CSR) graph, built once
// by NewFrozen and queried many times. Vertices are mapped onto dense
// int32 indices in ascending VertexID order; each vertex's out-edges
// live in one contiguous region of the targets/weights arrays, sorted by
// (target, weight, tag). The VertexID → index map is a table as long as
// the largest vertex ID, which suits the small dense IDs a topology
// hands out (IDs must be non-negative). Searches run over slice-based
// distance/predecessor state with an index-keyed binary heap and pooled
// scratch buffers, so a warm query allocates only its result.
//
// Frozen searches reproduce the map-based Graph searches exactly: the
// same (lower vertex ID first) tie-breaking, the same relaxation order,
// the same epsilon. The snapshot cache in internal/topology relies on
// this equivalence to serve restricted (in-slice) searches from an
// unrestricted snapshot through a Restriction.
type Frozen struct {
	directed bool
	ids      []VertexID // index -> VertexID, ascending
	index    []int32    // VertexID -> index, -1 where no vertex
	offsets  []int32    // per-vertex edge region, len(ids)+1
	targets  []int32    // edge head indices, sorted by (id, weight, tag)
	weights  []float64
	tags     []int64 // per-arc caller tags (nil when every tag is 0)
	edges    int
	// penalty exceeds the weight of every simple path (1 + the sum of all
	// arc weights): what ShortestPathAvoiding charges per avoided crossing.
	penalty float64
	// IndexRestrictable's: the vertices a Restriction may bar, the positions
	// coreArc[coreOff[u]:coreOff[u+1]] of u's arcs into the other vertices,
	// and the position rev[e] of arc e's reverse.
	restrictable     []bool
	coreOff, coreArc []int32
	rev              []int32
	// resets counts the search-state entries the plain search restored
	// (see SearchResets).
	resets atomic.Int64
}

// SearchResets returns how many dist/prev/done entries the plain search
// (ShortestPathIn, KShortestPathsIn) has restored after its runs on f —
// one per vertex a run reached, not one per vertex of f.
func (f *Frozen) SearchResets() int64 { return f.resets.Load() }

// arc is one CSR entry while NewFrozen lays a vertex's region out.
type arc struct {
	to     int32
	weight float64
	tag    int64
}

// cmpArc orders a region by (target, weight, tag): the target order the
// searches' tie-breaking reads, the lightest of parallel arcs first, and
// the tag to settle the rest, so one edge set gives one CSR.
func cmpArc(a, b arc) int {
	if c := cmp.Compare(a.to, b.to); c != 0 {
		return c
	}
	if c := cmp.Compare(a.weight, b.weight); c != 0 {
		return c
	}
	return cmp.Compare(a.tag, b.tag)
}

// NewFrozen builds the CSR graph over the vertices ids, which must be
// ascending and non-negative, and the edges between them: an undirected
// edge becomes an arc from each end, each carrying the edge's weight
// (non-negative) and tag. The CSR is laid out by counting sort — degrees
// counted, arcs placed, each vertex's region sorted by (target, weight,
// tag) — so it depends on the edge set alone, not on the edges' order.
// f keeps ids. It panics on a negative ID or an endpoint not in ids.
func NewFrozen(directed bool, ids []VertexID, edges []Edge) *Frozen {
	n := len(ids)
	var index []int32
	if n > 0 {
		if ids[0] < 0 {
			panic(fmt.Sprintf("graph: NewFrozen: negative vertex ID %d", ids[0]))
		}
		index = make([]int32, ids[n-1]+1)
		for i := range index {
			index[i] = -1
		}
		for i, id := range ids {
			index[id] = int32(i)
		}
	}
	f := &Frozen{directed: directed, ids: ids, index: index, offsets: make([]int32, n+1), edges: len(edges)}
	at := func(v VertexID) int32 {
		i, ok := f.IndexOf(v)
		if !ok {
			panic(fmt.Sprintf("graph: NewFrozen: edge endpoint %d is not a vertex", v))
		}
		return i
	}
	// Degrees land in offsets[u+1]; the prefix sum turns them into region
	// starts, which placement advances to region ends, one slot down.
	tagged := false
	for _, e := range edges {
		f.offsets[at(e.From)+1]++
		if !directed {
			f.offsets[at(e.To)+1]++
		}
		tagged = tagged || e.Tag != 0
	}
	for i := 0; i < n; i++ {
		f.offsets[i+1] += f.offsets[i]
	}
	arcs := make([]arc, f.offsets[n])
	for _, e := range edges {
		u, v := at(e.From), at(e.To)
		arcs[f.offsets[u]] = arc{v, e.Weight, e.Tag}
		f.offsets[u]++
		if !directed {
			arcs[f.offsets[v]] = arc{u, e.Weight, e.Tag}
			f.offsets[v]++
		}
	}
	copy(f.offsets[1:], f.offsets[:n])
	f.offsets[0] = 0
	f.targets = make([]int32, len(arcs))
	f.weights = make([]float64, len(arcs))
	if tagged {
		f.tags = make([]int64, len(arcs))
	}
	for u := 0; u < n; u++ {
		slices.SortFunc(arcs[f.offsets[u]:f.offsets[u+1]], cmpArc)
	}
	for e, a := range arcs {
		f.targets[e], f.weights[e] = a.to, a.weight
		f.penalty += a.weight
		if tagged {
			f.tags[e] = a.tag
		}
	}
	f.penalty++
	return f
}

// Frozen returns an immutable CSR snapshot of the graph, built by
// NewFrozen. Subsequent mutations of g do not affect the returned value.
// It panics on a negative vertex ID.
func (g *Graph) Frozen() *Frozen {
	var edges []Edge
	for u, hes := range g.adj {
		for _, he := range hes {
			if g.directed || u < he.to { // an undirected edge once
				edges = append(edges, Edge{From: u, To: he.to, Weight: he.weight, Tag: he.tag})
			}
		}
	}
	return NewFrozen(g.directed, g.Vertices(), edges)
}

// IndexOf returns the dense index of v, used to address LiveMask vertex
// entries, and whether v is a vertex of f (the index is 0 when not).
func (f *Frozen) IndexOf(v VertexID) (int32, bool) {
	if uint(v) < uint(len(f.index)) {
		if i := f.index[v]; i >= 0 {
			return i, true
		}
	}
	return 0, false
}

// at is IndexOf's index alone.
func (f *Frozen) at(v VertexID) int32 {
	i, _ := f.IndexOf(v)
	return i
}

// ArcTags returns the caller tag of every CSR arc position (parallel to
// the internal targets array), or nil if every tag was 0. The caller
// must not modify the returned slice.
func (f *Frozen) ArcTags() []int64 { return f.tags }

// VertexCount returns the number of vertices.
func (f *Frozen) VertexCount() int { return len(f.ids) }

// Vertices returns all vertices in ascending order. The caller must not
// modify the returned slice.
func (f *Frozen) Vertices() []VertexID { return f.ids }

// edgeWeightIdx returns the minimum weight among unmasked parallel
// ui->vi arcs. The region is sorted by (target, weight): the first
// unmasked hit is the minimum-weight live parallel edge.
func (f *Frozen) edgeWeightIdx(ui, vi int32, maskArc []bool) (float64, bool) {
	for e := f.offsets[ui]; e < f.offsets[ui+1]; e++ {
		if f.targets[e] == vi {
			if maskArc != nil && maskArc[e] {
				continue
			}
			return f.weights[e], true
		}
		if f.targets[e] > vi {
			break
		}
	}
	return 0, false
}

// frozenItem is one entry of the index-keyed search heap.
type frozenItem struct {
	dist float64
	idx  int32
}

// frozenScratch is the reusable per-search state, which replaces the
// per-search map allocations of the map-based Dijkstra. All slices are
// sized to the vertex count on first use. Between searches dist is +Inf,
// prev -1 and done false for every vertex: a search lists the vertices it
// wrote in touched and restores exactly those, as ShortestPathAvoiding's
// scratch does, so a search that reaches a dozen vertices of a thousand
// pays for a dozen.
type frozenScratch struct {
	dist    []float64
	prev    []int32
	done    []bool
	heap    []frozenItem
	touched []int32

	// restrict is the search's restriction (nil = none): it names the arcs
	// to relax.
	restrict *Restriction

	// Yen's spur state: banned vertices (root-path prefix) and banned
	// directed arcs (previously used deviations), reset per spur. The
	// arc bans are a handful of entries probed on every relaxed edge, so
	// a linear scan over packed arcs beats a map hash.
	banVertex []bool
	banArcs   []int64

	// Durable liveness masks borrowed from a LiveMask for the duration
	// of one search (the caller holds the mask's read lock). nil = no
	// masking. Unlike the ban sets these are owned by the mask, never
	// reset here.
	maskVertex []bool
	maskArc    []bool
}

var frozenScratchPool = sync.Pool{
	New: func() interface{} { return &frozenScratch{} },
}

func (f *Frozen) getScratch() *frozenScratch {
	s := frozenScratchPool.Get().(*frozenScratch)
	n := len(f.ids)
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.prev = make([]int32, n)
		for i := range s.dist {
			s.dist[i], s.prev[i] = math.Inf(1), -1
		}
		s.done = make([]bool, n)
		s.banVertex = make([]bool, n)
	}
	// The whole capacity stays clean, so a smaller graph may reslice.
	s.dist = s.dist[:n]
	s.prev = s.prev[:n]
	s.done = s.done[:n]
	s.banVertex = s.banVertex[:n]
	s.restrict = nil
	s.maskVertex, s.maskArc = nil, nil
	s.heap = s.heap[:0]
	return s
}

func (f *Frozen) putScratch(s *frozenScratch) {
	f.resetSearch(s)
	frozenScratchPool.Put(s)
}

// resetSearch restores dist/prev/done at the vertices the last run wrote.
func (f *Frozen) resetSearch(s *frozenScratch) {
	inf := math.Inf(1)
	for _, v := range s.touched {
		s.dist[v], s.prev[v], s.done[v] = inf, -1, false
	}
	if len(s.touched) > 0 {
		f.resets.Add(int64(len(s.touched)))
	}
	s.touched = s.touched[:0]
	s.heap = s.heap[:0]
}

// heapPush / heapPop implement a binary min-heap ordered by
// (dist, index): among equal distances the lower vertex index — hence
// the lower VertexID — pops first, matching the map-based pq.
func heapPush(h *[]frozenItem, it frozenItem) {
	heap := append(*h, it)
	i := len(heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !frozenLess(heap[i], heap[p]) {
			break
		}
		heap[i], heap[p] = heap[p], heap[i]
		i = p
	}
	*h = heap
}

func heapPop(h *[]frozenItem) frozenItem {
	heap := *h
	top := heap[0]
	n := len(heap) - 1
	heap[0] = heap[n]
	heap = heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && frozenLess(heap[l], heap[small]) {
			small = l
		}
		if r < n && frozenLess(heap[r], heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		heap[i], heap[small] = heap[small], heap[i]
		i = small
	}
	*h = heap
	return top
}

func frozenLess(a, b frozenItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.idx < b.idx
}

// dijkstra runs a single-source search from src, stopping early once
// dst is settled. The scratch's restriction bars vertices; the ban sets
// mask Yen's spur removals. Results land in s.dist / s.prev.
func (f *Frozen) dijkstra(src, dst int32, useBans bool, s *frozenScratch) {
	f.resetSearch(s)
	s.dist[src] = 0
	s.touched = append(s.touched, src)
	heapPush(&s.heap, frozenItem{dist: 0, idx: src})
	restrict := s.restrict
	maskVertex, maskArc := s.maskVertex, s.maskArc
	for len(s.heap) > 0 {
		it := heapPop(&s.heap)
		u := it.idx
		if s.done[u] {
			continue
		}
		s.done[u] = true
		if u == dst {
			return
		}
		lo, n, idx, more := f.arcsAt(u, restrict)
		for {
			for k := int32(0); k < n; k++ {
				e := lo + k
				if idx != nil {
					e = idx[k]
				}
				v := f.targets[e]
				if maskArc != nil && maskArc[e] {
					continue
				}
				if maskVertex != nil && maskVertex[v] {
					continue
				}
				if useBans {
					if s.banVertex[v] {
						continue
					}
					if bannedArc(s.banArcs, packArc(u, v)) {
						continue
					}
				}
				nd := it.dist + f.weights[e]
				if nd < s.dist[v]-1e-12 {
					if math.IsInf(s.dist[v], 1) {
						s.touched = append(s.touched, v)
					}
					s.dist[v] = nd
					s.prev[v] = u
					heapPush(&s.heap, frozenItem{dist: nd, idx: v})
				}
			}
			if len(more) == 0 {
				break
			}
			idx, more, n = more, nil, int32(len(more))
		}
	}
}

// bannedArc reports whether the packed arc is in the spur's ban list —
// a linear scan, since Yen bans at most a handful of deviating arcs per
// spur and the probe runs on every relaxed edge.
func bannedArc(bans []int64, arc int64) bool {
	for _, b := range bans {
		if b == arc {
			return true
		}
	}
	return false
}

func packArc(u, v int32) int64 { return int64(u)<<32 | int64(uint32(v)) }

// extractPath rebuilds the dst path from scratch state into a fresh
// slice (the only allocation of a warm search).
func (f *Frozen) extractPath(src, dst int32, s *frozenScratch) []VertexID {
	return appendPath[VertexID](f, nil, src, dst, s)
}

// appendPath appends the dst path from scratch state to buf.
func appendPath[V ~int](f *Frozen, buf []V, src, dst int32, s *frozenScratch) []V {
	n := 1
	for at := dst; at != src; at = s.prev[at] {
		n++
	}
	buf = slices.Grow(buf, n)
	path := buf[len(buf) : len(buf)+n]
	at := dst
	for i := n - 1; i >= 0; i-- {
		path[i] = V(f.ids[at])
		at = s.prev[at]
	}
	return buf[:len(buf)+n]
}

// ShortestPathIn appends to buf, in the caller's vertex type, the
// minimum-weight path from src to dst, and returns its total weight,
// with ties broken toward lower vertex IDs, under the restriction r (nil
// restricts nothing) and the durable liveness mask m (nil masks
// nothing); on error buf comes back as it was. It is output-identical
// to Graph.ShortestPath on the graph rebuilt without the barred vertices
// and the masked vertices and arcs, and relaxes only the arcs the
// restriction leaves: a caller running many searches under one
// restriction seals it once. The restriction is only read.
func ShortestPathIn[V ~int](f *Frozen, buf []V, src, dst VertexID, r *Restriction, m *LiveMask) ([]V, float64, error) {
	si, ok := f.IndexOf(src)
	if !ok {
		return buf, 0, fmt.Errorf("graph: shortest path: unknown source %d", src)
	}
	di, ok := f.IndexOf(dst)
	if !ok {
		return buf, 0, fmt.Errorf("graph: shortest path: unknown destination %d", dst)
	}
	if r.bars(si) || r.bars(di) {
		return buf, 0, fmt.Errorf("%w from %d to %d", ErrNoPath, src, dst)
	}
	s := f.getScratch()
	defer f.putScratch(s)
	s.restrict = r
	if m != nil {
		m.mu.RLock()
		defer m.mu.RUnlock()
		s.maskVertex, s.maskArc = m.downVertex, m.downArc
		if s.maskVertex[si] || s.maskVertex[di] {
			return buf, 0, fmt.Errorf("%w from %d to %d", ErrNoPath, src, dst)
		}
	}
	f.dijkstra(si, di, false, s)
	if math.IsInf(s.dist[di], 1) {
		return buf, 0, fmt.Errorf("%w from %d to %d", ErrNoPath, src, dst)
	}
	return appendPath(f, buf, si, di, s), s.dist[di], nil
}

// KShortestPathsIn returns up to k loopless paths from src to dst in
// nondecreasing weight order (Yen's algorithm) under the restriction r
// and the liveness mask m, as ShortestPathIn searches: barred and masked
// vertices and arcs are invisible to the first search, every spur search
// and candidate path weighing, exactly as if the graph had been rebuilt
// without them. It is output-identical to Graph.KShortestPaths on that
// graph but masks spur removals with ban sets instead of cloning and
// mutating a work graph per spur. It also returns the mask's digest as
// the run read it (0 without a mask): the live state the paths are exact
// for.
func (f *Frozen) KShortestPathsIn(src, dst VertexID, k int, r *Restriction, m *LiveMask) ([][]VertexID, []float64, uint64, error) {
	if k <= 0 {
		return nil, nil, 0, fmt.Errorf("graph: k-shortest paths: k must be positive, got %d", k)
	}
	si, ok := f.IndexOf(src)
	if !ok {
		return nil, nil, 0, fmt.Errorf("graph: shortest path: unknown source %d", src)
	}
	di, ok := f.IndexOf(dst)
	if !ok {
		return nil, nil, 0, fmt.Errorf("graph: shortest path: unknown destination %d", dst)
	}
	if r.bars(si) || r.bars(di) {
		return nil, nil, 0, fmt.Errorf("%w from %d to %d", ErrNoPath, src, dst)
	}
	s := f.getScratch()
	defer f.putScratch(s)
	s.restrict = r
	var digest uint64
	if m != nil {
		// One read-lock spans the whole Yen run: liveness patches wait
		// for in-flight searches, searches never see a half-applied
		// batch.
		m.mu.RLock()
		defer m.mu.RUnlock()
		s.maskVertex, s.maskArc, digest = m.downVertex, m.downArc, m.Digest()
		if s.maskVertex[si] || s.maskVertex[di] {
			return nil, nil, digest, fmt.Errorf("%w from %d to %d", ErrNoPath, src, dst)
		}
	}
	f.dijkstra(si, di, false, s)
	if math.IsInf(s.dist[di], 1) {
		return nil, nil, digest, fmt.Errorf("%w from %d to %d", ErrNoPath, src, dst)
	}
	first := f.extractPath(si, di, s)
	paths := [][]VertexID{first}
	weights := []float64{s.dist[di]}
	type cand struct {
		path   []VertexID
		weight float64
	}
	var candidates []cand
	for len(paths) < k {
		last := paths[len(paths)-1]
		for i := 0; i < len(last)-1; i++ {
			spur := last[i]
			rootPath := last[:i+1]
			// Reset spur bans, then mask the deviating arcs of every
			// accepted path sharing this root and the root's interior
			// vertices — the Frozen stand-in for Clone+removeEdge+
			// removeVertex.
			s.banArcs = s.banArcs[:0]
			for _, p := range paths {
				if len(p) > i && equalPath(p[:i+1], rootPath) {
					f.banArc(s, p[i], p[i+1])
				}
			}
			for _, v := range rootPath[:len(rootPath)-1] {
				s.banVertex[f.at(v)] = true
			}
			spi := f.at(spur)
			f.dijkstra(spi, di, true, s)
			found := !math.IsInf(s.dist[di], 1)
			var spurPath []VertexID
			if found {
				spurPath = f.extractPath(spi, di, s)
			}
			for _, v := range rootPath[:len(rootPath)-1] {
				s.banVertex[f.at(v)] = false
			}
			if !found {
				continue
			}
			total := append(append([]VertexID{}, rootPath[:len(rootPath)-1]...), spurPath...)
			tw := f.pathWeight(total, s.maskArc)
			if math.IsInf(tw, 1) {
				continue
			}
			dup := false
			for _, c := range candidates {
				if equalPath(c.path, total) {
					dup = true
					break
				}
			}
			for _, p := range paths {
				if equalPath(p, total) {
					dup = true
					break
				}
			}
			if !dup {
				candidates = append(candidates, cand{path: total, weight: tw})
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(i, j int) bool {
			if candidates[i].weight != candidates[j].weight {
				return candidates[i].weight < candidates[j].weight
			}
			return lessPath(candidates[i].path, candidates[j].path)
		})
		best := candidates[0]
		candidates = candidates[1:]
		paths = append(paths, best.path)
		weights = append(weights, best.weight)
	}
	return paths, weights, digest, nil
}

// banArc masks every parallel u->v arc (and v->u for undirected
// graphs), mirroring Graph.removeEdge.
func (f *Frozen) banArc(s *frozenScratch, u, v VertexID) {
	ui, ok := f.IndexOf(u)
	if !ok {
		return
	}
	vi, ok := f.IndexOf(v)
	if !ok {
		return
	}
	s.banArcs = append(s.banArcs, packArc(ui, vi))
	if !f.directed {
		s.banArcs = append(s.banArcs, packArc(vi, ui))
	}
}

// pathWeight totals a path's weight over minimum-weight unmasked
// parallel arcs, returning +Inf if any hop has no unmasked arc.
func (f *Frozen) pathWeight(path []VertexID, maskArc []bool) float64 {
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		w, ok := f.edgeWeightIdx(f.at(path[i]), f.at(path[i+1]), maskArc)
		if !ok {
			return math.Inf(1)
		}
		total += w
	}
	return total
}
