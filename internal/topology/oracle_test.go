package topology

import "github.com/alvc/alvc/internal/graph"

// routingGraph is the cold oracle the routing snapshot is tested
// against: the topology projected onto a fresh map-based graph at its
// current state. Edge weight is link latency in microseconds (0.1 for a
// VM's edge to its host); down nodes and links are left out, and so is
// every OPS outside restrict when it is non-nil. It builds no snapshot
// and does not count in GraphBuilds.
func routingGraph(t *Topology, includeVMs bool, restrict NodeSet) *graph.Graph {
	g := graph.New(false)
	include := func(n *Node) bool {
		if n.Down {
			return false
		}
		switch n.Kind {
		case KindVM:
			return includeVMs
		case KindOPS:
			return restrict == nil || restrict.Has(n.ID)
		default:
			return true
		}
	}
	for _, n := range t.Nodes() {
		if include(n) && n.Kind != KindVM {
			g.AddVertex(graph.VertexID(n.ID))
		}
	}
	for _, l := range t.Links() {
		if l.Down {
			continue
		}
		nf, nt := t.Node(l.From), t.Node(l.To)
		if !include(nf) || !include(nt) || nf.Kind == KindVM || nt.Kind == KindVM {
			continue
		}
		_ = g.AddEdge(graph.VertexID(l.From), graph.VertexID(l.To), l.LatencyMicros)
	}
	if includeVMs {
		for _, n := range t.Nodes(KindVM) {
			if h := t.Node(n.Host); n.Down || h == nil || h.Down {
				continue
			}
			_ = g.AddEdge(graph.VertexID(n.ID), graph.VertexID(n.Host), 0.1)
		}
	}
	return g
}
