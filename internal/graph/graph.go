// Package graph provides the graph substrate used throughout the AL-VC
// architecture: the frozen CSR graph (Frozen) with the shortest-path,
// avoiding and Yen searches of SDN path computation under a Restriction
// and a LiveMask, and the cover solvers of abstraction-layer (AL)
// construction (paper §III-C), which run on adjacency lists and select
// the ToRs, then the optical packet switches (OPSs), that form an AL.
// The map-based Graph and its searches are no program's code: they are
// the reference the CSR searches are tested against, in non-test files
// because topology's oracle tests import them too, and the module's
// reachability gate allowlists them as that reference.
//
// All algorithms are deterministic: vertex iteration orders are sorted so
// that repeated runs over the same input produce identical output, which
// the experiment harness relies on for reproducibility.
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex. The topology package maps its node IDs
// directly onto VertexIDs, so conversions between the two are free.
type VertexID int

// Edge is a weighted connection between two vertices, with an opaque
// caller tag (0 = untagged; see AddEdgeTagged). For undirected graphs an
// Edge is stored once per direction internally but reported once by
// EdgeCount.
type Edge struct {
	From   VertexID
	To     VertexID
	Weight float64
	Tag    int64
}

type halfEdge struct {
	to     VertexID
	weight float64
	// tag is an opaque caller-assigned label (0 = untagged) carried into
	// Frozen so callers can locate the CSR arcs of a specific source edge
	// — the hook the topology layer uses to patch per-link liveness masks
	// without rebuilding.
	tag int64
}

// Graph is a weighted graph with O(1) vertex lookup and sorted,
// deterministic iteration. The zero value is not usable; construct with
// New.
type Graph struct {
	directed bool
	adj      map[VertexID][]halfEdge
	edges    int
	tagged   bool
}

// New returns an empty graph. If directed is false, AddEdge inserts the
// reverse arc automatically and EdgeCount counts each undirected edge
// once.
func New(directed bool) *Graph {
	return &Graph{
		directed: directed,
		adj:      make(map[VertexID][]halfEdge),
	}
}

// Directed reports whether the graph was created as a directed graph.
func (g *Graph) Directed() bool { return g.directed }

// AddVertex inserts v if not already present.
func (g *Graph) AddVertex(v VertexID) {
	if _, ok := g.adj[v]; !ok {
		g.adj[v] = nil
	}
}

// HasVertex reports whether v is in the graph.
func (g *Graph) HasVertex(v VertexID) bool {
	_, ok := g.adj[v]
	return ok
}

// AddEdge inserts an edge from u to v with the given weight, creating
// the endpoints as needed. Negative weights are rejected because the
// shortest-path search is Dijkstra-based.
func (g *Graph) AddEdge(u, v VertexID, weight float64) error {
	return g.AddEdgeTagged(u, v, weight, 0)
}

// AddEdgeTagged is AddEdge with an opaque edge tag (0 = untagged). Tags
// survive freezing: Frozen.ArcTags reports the tag of every CSR arc, so
// a caller can map its own edge identifiers onto arc positions — even
// with parallel equal-weight edges — and mask them durably via LiveMask.
func (g *Graph) AddEdgeTagged(u, v VertexID, weight float64, tag int64) error {
	if weight < 0 {
		return fmt.Errorf("graph: negative edge weight %f on %d->%d", weight, u, v)
	}
	if u == v {
		return fmt.Errorf("graph: self loop on vertex %d", u)
	}
	g.AddVertex(u)
	g.AddVertex(v)
	g.adj[u] = append(g.adj[u], halfEdge{to: v, weight: weight, tag: tag})
	if !g.directed {
		g.adj[v] = append(g.adj[v], halfEdge{to: u, weight: weight, tag: tag})
	}
	if tag != 0 {
		g.tagged = true
	}
	g.edges++
	return nil
}

// HasEdge reports whether an edge u->v exists.
func (g *Graph) HasEdge(u, v VertexID) bool {
	for _, he := range g.adj[u] {
		if he.to == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the minimum weight among parallel u->v edges, and
// whether any such edge exists.
func (g *Graph) EdgeWeight(u, v VertexID) (float64, bool) {
	best, found := 0.0, false
	for _, he := range g.adj[u] {
		if he.to == v && (!found || he.weight < best) {
			best, found = he.weight, true
		}
	}
	return best, found
}

// VertexCount returns the number of vertices.
func (g *Graph) VertexCount() int { return len(g.adj) }

// EdgeCount returns the number of edges added via AddEdge.
func (g *Graph) EdgeCount() int { return g.edges }

// Vertices returns all vertices in ascending order.
func (g *Graph) Vertices() []VertexID {
	vs := make([]VertexID, 0, len(g.adj))
	for v := range g.adj {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// Neighbors returns the out-neighbors of v in ascending order,
// deduplicated.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	seen := make(map[VertexID]bool, len(g.adj[v]))
	out := make([]VertexID, 0, len(g.adj[v]))
	for _, he := range g.adj[v] {
		if !seen[he.to] {
			seen[he.to] = true
			out = append(out, he.to)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Edges returns every edge. For undirected graphs each edge is reported
// once with From < To. The result is sorted by (From, To, Weight).
func (g *Graph) Edges() []Edge {
	var es []Edge
	for u, hes := range g.adj {
		for _, he := range hes {
			if !g.directed && he.to < u {
				continue
			}
			es = append(es, Edge{From: u, To: he.to, Weight: he.weight, Tag: he.tag})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		if es[i].To != es[j].To {
			return es[i].To < es[j].To
		}
		return es[i].Weight < es[j].Weight
	})
	return es
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.directed)
	c.edges = g.edges
	c.tagged = g.tagged
	for v, hes := range g.adj {
		cp := make([]halfEdge, len(hes))
		copy(cp, hes)
		c.adj[v] = cp
	}
	return c
}

// Subgraph returns the induced subgraph on keep. Edges with an endpoint
// outside keep are dropped.
func (g *Graph) Subgraph(keep map[VertexID]bool) *Graph {
	s := New(g.directed)
	for v := range g.adj {
		if keep[v] {
			s.AddVertex(v)
		}
	}
	for u, hes := range g.adj {
		if !keep[u] {
			continue
		}
		for _, he := range hes {
			if !keep[he.to] {
				continue
			}
			if !g.directed && he.to < u {
				continue
			}
			// Weights were validated on the way in; ignore the error.
			_ = s.AddEdge(u, he.to, he.weight)
		}
	}
	return s
}
