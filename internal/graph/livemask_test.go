package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// maskedTestGraph builds a small tagged multigraph: a 4x4 grid with a
// few parallel edges of differing weights.
func maskedTestGraph(t *testing.T) (*Graph, []Edge, map[int64][2]VertexID) {
	t.Helper()
	g := New(false)
	tagOf := make(map[int64][2]VertexID)
	tag := int64(0)
	add := func(u, v VertexID, w float64) {
		tag++
		if err := g.AddEdgeTagged(u, v, w, tag); err != nil {
			t.Fatalf("AddEdgeTagged(%d,%d): %v", u, v, err)
		}
		tagOf[tag] = [2]VertexID{u, v}
	}
	side := 4
	at := func(r, c int) VertexID { return VertexID(r*side + c + 1) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				add(at(r, c), at(r, c+1), float64(1+(r+c)%3))
			}
			if r+1 < side {
				add(at(r, c), at(r+1, c), float64(1+(r*c)%4))
			}
		}
	}
	// Parallel edges: one cheaper, one pricier, between existing pairs.
	add(at(0, 0), at(0, 1), 0.5)
	add(at(1, 1), at(2, 1), 9)
	add(at(2, 2), at(2, 3), 0.25)
	return g, g.Edges(), tagOf
}

// applyMask marks the given tags' arcs and the given vertices down on a
// fresh mask, and returns the rebuilt comparison graph with those same
// edges and vertices removed entirely.
func applyMask(t *testing.T, g *Graph, f *Frozen, deadTags map[int64]bool, deadVerts map[VertexID]bool) (*LiveMask, *Frozen) {
	t.Helper()
	m := f.NewLiveMask()
	var arcs []int32
	for pos, tg := range f.ArcTags() {
		if deadTags[tg] {
			arcs = append(arcs, int32(pos))
		}
	}
	down := make(map[int32]bool)
	for v := range deadVerts {
		idx, ok := f.IndexOf(v)
		if !ok {
			t.Fatalf("IndexOf(%d): missing", v)
		}
		down[idx] = true
	}
	m.Patch(down, arcs, true)
	// Rebuild without the dead elements: the ground truth the mask must
	// reproduce byte-for-byte.
	cold := New(g.directed)
	for _, v := range g.Vertices() {
		if !deadVerts[v] {
			cold.AddVertex(v)
		}
	}
	for u, hes := range g.adj {
		for _, he := range hes {
			if !g.directed && he.to < u {
				continue
			}
			if deadTags[he.tag] || deadVerts[u] || deadVerts[he.to] {
				continue
			}
			if err := cold.AddEdge(u, he.to, he.weight); err != nil {
				t.Fatalf("cold AddEdge: %v", err)
			}
		}
	}
	return m, cold.Frozen()
}

func TestLiveMaskEqualsRebuild(t *testing.T) {
	g, _, tagOf := maskedTestGraph(t)
	f := g.Frozen()
	rng := rand.New(rand.NewSource(7))
	verts := g.Vertices()
	for round := 0; round < 60; round++ {
		deadTags := make(map[int64]bool)
		for tg := range tagOf {
			if rng.Intn(5) == 0 {
				deadTags[tg] = true
			}
		}
		deadVerts := make(map[VertexID]bool)
		for _, v := range verts {
			if rng.Intn(8) == 0 {
				deadVerts[v] = true
			}
		}
		m, cold := applyMask(t, g, f, deadTags, deadVerts)
		for trial := 0; trial < 10; trial++ {
			src := verts[rng.Intn(len(verts))]
			dst := verts[rng.Intn(len(verts))]
			if deadVerts[src] || deadVerts[dst] || src == dst {
				continue
			}
			gotP, gotW, gotErr := f.ShortestPathIn(src, dst, nil, m)
			wantP, wantW, wantErr := cold.ShortestPathIn(src, dst, nil, nil)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("round %d: masked err=%v cold err=%v (src=%d dst=%d)", round, gotErr, wantErr, src, dst)
			}
			if gotErr == nil && (!reflect.DeepEqual(gotP, wantP) || gotW != wantW) {
				t.Fatalf("round %d: masked path %v/%v != cold %v/%v", round, gotP, gotW, wantP, wantW)
			}
			gotPs, gotWs, _, gotErr2 := f.KShortestPathsIn(src, dst, 4, nil, m)
			wantPs, wantWs, _, wantErr2 := cold.KShortestPathsIn(src, dst, 4, nil, nil)
			if (gotErr2 == nil) != (wantErr2 == nil) {
				t.Fatalf("round %d: masked yen err=%v cold err=%v", round, gotErr2, wantErr2)
			}
			if gotErr2 == nil && (!reflect.DeepEqual(gotPs, wantPs) || !reflect.DeepEqual(gotWs, wantWs)) {
				t.Fatalf("round %d: masked yen %v/%v != cold %v/%v", round, gotPs, gotWs, wantPs, wantWs)
			}
		}
	}
}

// maskEmpty reports whether m holds nothing down.
func maskEmpty(m *LiveMask) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return !slices.Contains(m.downVertex, true) && !slices.Contains(m.downArc, true)
}

func TestLiveMaskRecoveryAndEmpty(t *testing.T) {
	g, _, _ := maskedTestGraph(t)
	f := g.Frozen()
	m := f.NewLiveMask()
	if !maskEmpty(m) {
		t.Fatal("fresh mask not empty")
	}
	basePath, baseW, err := f.ShortestPathIn(1, 16, nil, m)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	// Down then up again: a full fail/recover cycle must restore the
	// exact baseline result and leave the mask empty.
	var arcs []int32
	for pos := range f.ArcTags() {
		arcs = append(arcs, int32(pos))
	}
	m.Patch(nil, arcs, true)
	if _, _, err := f.ShortestPathIn(1, 16, nil, m); err == nil {
		t.Fatal("all arcs masked but a path was found")
	}
	m.Patch(nil, arcs, false)
	if !maskEmpty(m) {
		t.Fatal("mask not empty after full recovery")
	}
	p, w, err := f.ShortestPathIn(1, 16, nil, m)
	if err != nil || !reflect.DeepEqual(p, basePath) || w != baseW {
		t.Fatalf("post-recovery search %v/%v/%v != baseline %v/%v", p, w, err, basePath, baseW)
	}
}

// TestLiveMaskDigestNamesTheState: the digest is a function of what is
// down, not of the path there — 0 all up, back to its value when a flap
// recovers, equal for two masks that reached one state in different
// orders, distinct for a vertex index and the arc position of the same
// number — and the searches report the one they ran under.
func TestLiveMaskDigestNamesTheState(t *testing.T) {
	g, _, _ := maskedTestGraph(t)
	f := g.Frozen()
	a, b := f.NewLiveMask(), f.NewLiveMask()
	if a.Digest() != 0 {
		t.Fatalf("all-up digest %#x, want 0", a.Digest())
	}
	a.Patch(map[int32]bool{3: true}, nil, true)
	a.Patch(nil, []int32{5, 6}, true)
	b.Patch(map[int32]bool{3: true}, []int32{6, 5}, true)
	b.Patch(nil, []int32{5}, true) // no transition: no change
	if a.Digest() == 0 || a.Digest() != b.Digest() {
		t.Fatalf("same state, digests %#x and %#x", a.Digest(), b.Digest())
	}
	down := a.Digest()
	a.Patch(nil, []int32{7}, true)
	if a.Digest() == down {
		t.Fatal("one more arc down left the digest unchanged")
	}
	a.Patch(nil, []int32{7}, false)
	if a.Digest() != down {
		t.Fatalf("after the flap %#x, want %#x", a.Digest(), down)
	}
	v, arc := f.NewLiveMask(), f.NewLiveMask()
	v.Patch(map[int32]bool{5: true}, nil, true)
	arc.Patch(nil, []int32{5}, true)
	if v.Digest() == arc.Digest() {
		t.Fatal("vertex 5 and arc 5 share a digest")
	}

	if _, got, err := ShortestPathAvoiding[VertexID](f, nil, 1, 16, nil, a, nil, 0); err != nil || got != down {
		t.Fatalf("avoiding search reported %#x, %v; want %#x", got, err, down)
	}
	if _, _, got, err := f.KShortestPathsIn(1, 16, 2, nil, a); err != nil || got != down {
		t.Fatalf("Yen reported %#x, %v; want %#x", got, err, down)
	}
	a.Patch(map[int32]bool{3: false}, []int32{5, 6}, false)
	if a.Digest() != 0 || !maskEmpty(a) {
		t.Fatalf("all recovered: digest %#x, empty %v", a.Digest(), maskEmpty(a))
	}
}
