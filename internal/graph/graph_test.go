package graph

import (
	"math"
	"testing"
)

func TestGraphBasics(t *testing.T) {
	g := New(false)
	g.AddVertex(1)
	if !g.HasVertex(1) {
		t.Fatal("vertex 1 missing after AddVertex")
	}
	if g.HasVertex(2) {
		t.Fatal("vertex 2 unexpectedly present")
	}
	if err := g.AddEdge(1, 2, 1.5); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("undirected edge must exist in both directions")
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d, want 1", g.EdgeCount())
	}
	if g.VertexCount() != 2 {
		t.Fatalf("VertexCount = %d, want 2", g.VertexCount())
	}
	w, ok := g.EdgeWeight(1, 2)
	if !ok || w != 1.5 {
		t.Fatalf("EdgeWeight = %f,%v want 1.5,true", w, ok)
	}
}

func TestGraphRejectsBadEdges(t *testing.T) {
	g := New(true)
	if err := g.AddEdge(1, 1, 1); err == nil {
		t.Fatal("self loop accepted")
	}
	if err := g.AddEdge(1, 2, -1); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestDirectedEdgesOneWay(t *testing.T) {
	g := New(true)
	if err := g.AddEdge(1, 2, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if !g.HasEdge(1, 2) {
		t.Fatal("forward edge missing")
	}
	if g.HasEdge(2, 1) {
		t.Fatal("reverse edge present in directed graph")
	}
}

func TestVerticesSorted(t *testing.T) {
	g := New(false)
	for _, v := range []VertexID{5, 3, 9, 1} {
		g.AddVertex(v)
	}
	vs := g.Vertices()
	want := []VertexID{1, 3, 5, 9}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("Vertices = %v, want %v", vs, want)
		}
	}
}

func TestNeighborsDeduplicated(t *testing.T) {
	g := New(false)
	_ = g.AddEdge(1, 2, 1)
	_ = g.AddEdge(1, 2, 3) // parallel edge
	ns := g.Neighbors(1)
	if len(ns) != 1 || ns[0] != 2 {
		t.Fatalf("Neighbors = %v, want [2]", ns)
	}
	// EdgeWeight picks the minimum of parallel edges.
	w, _ := g.EdgeWeight(1, 2)
	if w != 1 {
		t.Fatalf("EdgeWeight over parallel edges = %f, want 1", w)
	}
}

func lineGraph(n int) *Graph {
	g := New(false)
	for i := 0; i < n-1; i++ {
		_ = g.AddEdge(VertexID(i), VertexID(i+1), 1)
	}
	return g
}

func TestShortestPathLine(t *testing.T) {
	g := lineGraph(5)
	path, d, err := g.ShortestPath(0, 4)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if d != 4 {
		t.Fatalf("distance = %f, want 4", d)
	}
	if len(path) != 5 || path[0] != 0 || path[4] != 4 {
		t.Fatalf("path = %v", path)
	}
}

func TestShortestPathPrefersLightEdges(t *testing.T) {
	g := New(false)
	_ = g.AddEdge(1, 2, 10)
	_ = g.AddEdge(1, 3, 1)
	_ = g.AddEdge(3, 2, 1)
	path, d, err := g.ShortestPath(1, 2)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if d != 2 {
		t.Fatalf("distance = %f, want 2", d)
	}
	if len(path) != 3 || path[1] != 3 {
		t.Fatalf("path = %v, want detour via 3", path)
	}
}

func TestShortestPathNoPath(t *testing.T) {
	g := New(false)
	g.AddVertex(1)
	g.AddVertex(2)
	if _, _, err := g.ShortestPath(1, 2); err == nil {
		t.Fatal("expected error for disconnected vertices")
	}
}

func TestShortestPathUnknownVertex(t *testing.T) {
	g := lineGraph(3)
	if _, _, err := g.ShortestPath(0, 99); err == nil {
		t.Fatal("expected error for unknown destination")
	}
	if _, _, err := g.ShortestPath(99, 0); err == nil {
		t.Fatal("expected error for unknown source")
	}
}

func TestShortestPathToSelf(t *testing.T) {
	g := lineGraph(3)
	path, d, err := g.ShortestPath(1, 1)
	if err != nil {
		t.Fatalf("ShortestPath self: %v", err)
	}
	if d != 0 || len(path) != 1 || path[0] != 1 {
		t.Fatalf("self path = %v dist %f", path, d)
	}
}

func TestSubgraph(t *testing.T) {
	g := lineGraph(5)
	sub := g.Subgraph(map[VertexID]bool{0: true, 1: true, 2: true})
	if sub.VertexCount() != 3 {
		t.Fatalf("sub vertices = %d, want 3", sub.VertexCount())
	}
	if sub.EdgeCount() != 2 {
		t.Fatalf("sub edges = %d, want 2", sub.EdgeCount())
	}
	if sub.HasEdge(2, 3) {
		t.Fatal("edge outside keep set leaked into subgraph")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := lineGraph(3)
	c := g.Clone()
	_ = c.AddEdge(0, 2, 5)
	if g.HasEdge(0, 2) {
		t.Fatal("mutating clone affected original")
	}
	if g.EdgeCount() != 2 || c.EdgeCount() != 3 {
		t.Fatalf("edge counts: orig %d clone %d", g.EdgeCount(), c.EdgeCount())
	}
}

func TestKShortestPaths(t *testing.T) {
	// Diamond: 1-2-4 (w2), 1-3-4 (w3), 1-4 direct (w5).
	g := New(false)
	_ = g.AddEdge(1, 2, 1)
	_ = g.AddEdge(2, 4, 1)
	_ = g.AddEdge(1, 3, 1)
	_ = g.AddEdge(3, 4, 2)
	_ = g.AddEdge(1, 4, 5)
	paths, weights, err := g.KShortestPaths(1, 4, 3)
	if err != nil {
		t.Fatalf("KShortestPaths: %v", err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	wantW := []float64{2, 3, 5}
	for i, w := range wantW {
		if math.Abs(weights[i]-w) > 1e-9 {
			t.Errorf("path %d weight = %f, want %f (paths %v)", i, weights[i], w, paths)
		}
	}
	// Nondecreasing weights.
	for i := 1; i < len(weights); i++ {
		if weights[i] < weights[i-1] {
			t.Errorf("weights not sorted: %v", weights)
		}
	}
}

func TestKShortestPathsFewerThanK(t *testing.T) {
	g := lineGraph(3)
	paths, _, err := g.KShortestPaths(0, 2, 5)
	if err != nil {
		t.Fatalf("KShortestPaths: %v", err)
	}
	if len(paths) != 1 {
		t.Fatalf("line graph has 1 loopless path, got %d", len(paths))
	}
}

func TestKShortestPathsBadK(t *testing.T) {
	g := lineGraph(3)
	if _, _, err := g.KShortestPaths(0, 2, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}
