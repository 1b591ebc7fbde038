package graph

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// ErrNoPath is reported (wrapped) when no path exists between the
// requested endpoints.
var ErrNoPath = fmt.Errorf("graph: no path")

// pqItem is an entry in the Dijkstra priority queue.
type pqItem struct {
	v    VertexID
	dist float64
}

type pq []pqItem

func (q pq) Len() int { return len(q) }

// Less orders by distance with ties broken toward lower vertex IDs, so
// pop order — and therefore which of two equal-weight paths wins the
// strict dist-update race — is fully deterministic. The Frozen CSR heap
// uses the identical rule; the golden equivalence tests rely on it.
func (q pq) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].v < q[j].v
}
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ShortestPath returns the minimum-weight path from src to dst and its
// total weight. Ties are broken toward lower vertex IDs so the result is
// deterministic.
func (g *Graph) ShortestPath(src, dst VertexID) ([]VertexID, float64, error) {
	if !g.HasVertex(src) {
		return nil, 0, fmt.Errorf("graph: shortest path: unknown source %d", src)
	}
	if !g.HasVertex(dst) {
		return nil, 0, fmt.Errorf("graph: shortest path: unknown destination %d", dst)
	}
	dist, prev := g.dijkstra(src)
	d, ok := dist[dst]
	if !ok {
		return nil, 0, fmt.Errorf("%w from %d to %d", ErrNoPath, src, dst)
	}
	var path []VertexID
	for at := dst; ; {
		path = append(path, at)
		if at == src {
			break
		}
		at = prev[at]
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, d, nil
}

func (g *Graph) dijkstra(src VertexID) (map[VertexID]float64, map[VertexID]VertexID) {
	dist := map[VertexID]float64{src: 0}
	prev := make(map[VertexID]VertexID)
	done := make(map[VertexID]bool)
	q := &pq{{v: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.v] {
			continue
		}
		done[it.v] = true
		// Sorted neighbor scan keeps tie-breaking deterministic.
		hes := make([]halfEdge, len(g.adj[it.v]))
		copy(hes, g.adj[it.v])
		sort.Slice(hes, func(i, j int) bool {
			if hes[i].to != hes[j].to {
				return hes[i].to < hes[j].to
			}
			return hes[i].weight < hes[j].weight
		})
		for _, he := range hes {
			nd := it.dist + he.weight
			if cur, ok := dist[he.to]; !ok || nd < cur-1e-12 {
				dist[he.to] = nd
				prev[he.to] = it.v
				heap.Push(q, pqItem{v: he.to, dist: nd})
			}
		}
	}
	return dist, prev
}

// KShortestPaths returns up to k loopless paths from src to dst in
// nondecreasing weight order (Yen's algorithm). It is used by the SDN
// controller to offer alternate provisioning paths inside a slice.
func (g *Graph) KShortestPaths(src, dst VertexID, k int) ([][]VertexID, []float64, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("graph: k-shortest paths: k must be positive, got %d", k)
	}
	first, w, err := g.ShortestPath(src, dst)
	if err != nil {
		return nil, nil, err
	}
	paths := [][]VertexID{first}
	weights := []float64{w}
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
			work := g.Clone()
			for _, p := range paths {
				if len(p) > i && equalPath(p[:i+1], rootPath) {
					work.removeEdge(p[i], p[i+1])
				}
			}
			for _, v := range rootPath[:len(rootPath)-1] {
				work.removeVertex(v)
			}
			spurPath, spurW, serr := work.ShortestPath(spur, dst)
			if serr != nil {
				continue
			}
			total := append(append([]VertexID{}, rootPath[:len(rootPath)-1]...), spurPath...)
			tw := pathWeight(g, total)
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
			_ = spurW
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
	return paths, weights, nil
}

func (g *Graph) removeEdge(u, v VertexID) {
	out := g.adj[u][:0]
	for _, he := range g.adj[u] {
		if he.to != v {
			out = append(out, he)
		}
	}
	g.adj[u] = out
	if !g.directed {
		out = g.adj[v][:0]
		for _, he := range g.adj[v] {
			if he.to != u {
				out = append(out, he)
			}
		}
		g.adj[v] = out
	}
}

func (g *Graph) removeVertex(v VertexID) {
	delete(g.adj, v)
	for u, hes := range g.adj {
		out := hes[:0]
		for _, he := range hes {
			if he.to != v {
				out = append(out, he)
			}
		}
		g.adj[u] = out
	}
}

func pathWeight(g *Graph, path []VertexID) float64 {
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		w, ok := g.EdgeWeight(path[i], path[i+1])
		if !ok {
			return math.Inf(1)
		}
		total += w
	}
	return total
}

func equalPath(a, b []VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessPath(a, b []VertexID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
