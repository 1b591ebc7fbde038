package graph

import (
	"errors"
	"math/rand"
	"testing"
)

// randomWeightedGraph builds a deterministic pseudo-random
// connected-ish graph
// with integer-ish weights (to provoke equal-weight ties) and some
// parallel edges.
func randomWeightedGraph(t testing.TB, seed int64, n, extra int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(false)
	for v := 1; v <= n; v++ {
		g.AddVertex(VertexID(v))
	}
	// Spanning chain keeps most vertex pairs connected.
	for v := 1; v < n; v++ {
		if err := g.AddEdge(VertexID(v), VertexID(v+1), float64(1+rng.Intn(4))); err != nil {
			t.Fatalf("chain edge: %v", err)
		}
	}
	for i := 0; i < extra; i++ {
		u := VertexID(1 + rng.Intn(n))
		v := VertexID(1 + rng.Intn(n))
		if u == v {
			continue
		}
		if err := g.AddEdge(u, v, float64(1+rng.Intn(4))); err != nil {
			t.Fatalf("extra edge: %v", err)
		}
	}
	return g
}

func pathsEqual(a, b []VertexID) bool {
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

// TestFrozenShortestPathGolden asserts byte-identical shortest paths
// between the map-based and CSR implementations across many random
// graphs and endpoint pairs, including tie-heavy unit-weight graphs.
func TestFrozenShortestPathGolden(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := randomWeightedGraph(t, seed, 40, 120)
		f := g.Frozen()
		rng := rand.New(rand.NewSource(seed * 101))
		for trial := 0; trial < 50; trial++ {
			src := VertexID(1 + rng.Intn(40))
			dst := VertexID(1 + rng.Intn(40))
			wantPath, wantW, wantErr := g.ShortestPath(src, dst)
			gotPath, gotW, gotErr := f.ShortestPathIn(src, dst, nil, nil)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seed %d %d->%d: error mismatch map=%v frozen=%v", seed, src, dst, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if !pathsEqual(wantPath, gotPath) || wantW != gotW {
				t.Fatalf("seed %d %d->%d: map %v (%g) vs frozen %v (%g)",
					seed, src, dst, wantPath, wantW, gotPath, gotW)
			}
		}
	}
}

// TestFrozenFilteredEqualsSubgraph asserts that a search under a
// Restriction equals a cold search over the induced subgraph — the exact
// contract the topology snapshot cache relies on for in-slice searches.
func TestFrozenFilteredEqualsSubgraph(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := randomWeightedGraph(t, seed, 30, 90)
		f := g.Frozen()
		all := make([]bool, f.VertexCount())
		for i := range all {
			all[i] = true
		}
		f.IndexRestrictable(all)
		r := f.NewRestriction()
		rng := rand.New(rand.NewSource(seed * 77))
		for trial := 0; trial < 30; trial++ {
			keep := make(map[VertexID]bool)
			r.Reset()
			for v := 1; v <= 30; v++ {
				if rng.Float64() < 0.7 {
					keep[VertexID(v)] = true
					r.Admit(f.index[v])
				}
			}
			r.Seal()
			sub := g.Subgraph(keep)
			src := VertexID(1 + rng.Intn(30))
			dst := VertexID(1 + rng.Intn(30))
			if !keep[src] || !keep[dst] {
				if _, _, err := f.ShortestPathIn(src, dst, r, nil); !errors.Is(err, ErrNoPath) {
					t.Fatalf("seed %d: filtered-out endpoint should yield ErrNoPath, got %v", seed, err)
				}
				continue
			}
			wantPath, wantW, wantErr := sub.ShortestPath(src, dst)
			gotPath, gotW, gotErr := f.ShortestPathIn(src, dst, r, nil)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seed %d %d->%d: error mismatch sub=%v frozen=%v", seed, src, dst, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if !pathsEqual(wantPath, gotPath) || wantW != gotW {
				t.Fatalf("seed %d %d->%d: sub %v (%g) vs filtered frozen %v (%g)",
					seed, src, dst, wantPath, wantW, gotPath, gotW)
			}
		}
	}
}

// TestFrozenKShortestGolden asserts Yen's output — paths and weights —
// is byte-identical between the implementations.
func TestFrozenKShortestGolden(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := randomWeightedGraph(t, seed, 24, 70)
		f := g.Frozen()
		rng := rand.New(rand.NewSource(seed * 31))
		for trial := 0; trial < 12; trial++ {
			src := VertexID(1 + rng.Intn(24))
			dst := VertexID(1 + rng.Intn(24))
			if src == dst {
				continue
			}
			k := 1 + rng.Intn(5)
			wantPaths, wantWs, wantErr := g.KShortestPaths(src, dst, k)
			gotPaths, gotWs, _, gotErr := f.KShortestPathsIn(src, dst, k, nil, nil)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seed %d %d->%d k=%d: error mismatch map=%v frozen=%v", seed, src, dst, k, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if len(wantPaths) != len(gotPaths) {
				t.Fatalf("seed %d %d->%d k=%d: %d vs %d paths", seed, src, dst, k, len(wantPaths), len(gotPaths))
			}
			for i := range wantPaths {
				if !pathsEqual(wantPaths[i], gotPaths[i]) || wantWs[i] != gotWs[i] {
					t.Fatalf("seed %d %d->%d k=%d path %d: map %v (%g) vs frozen %v (%g)",
						seed, src, dst, k, i, wantPaths[i], wantWs[i], gotPaths[i], gotWs[i])
				}
			}
		}
	}
}

// TestFrozenAccessors covers the small read API.
func TestFrozenAccessors(t *testing.T) {
	g := New(false)
	if err := g.AddEdge(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 2); err != nil { // parallel, lighter
		t.Fatal(err)
	}
	f := g.Frozen()
	if f.VertexCount() != 3 || f.EdgeCount() != 3 {
		t.Fatalf("counts: %d vertices %d edges", f.VertexCount(), f.EdgeCount())
	}
	if _, ok := f.IndexOf(2); !ok {
		t.Fatal("vertex 2 missing")
	}
	if _, ok := f.IndexOf(9); ok {
		t.Fatal("vertex 9 present")
	}
	if _, _, err := f.ShortestPathIn(9, 1, nil, nil); err == nil {
		t.Fatal("unknown source should error")
	}
	if _, _, _, err := f.KShortestPathsIn(1, 3, 0, nil, nil); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, w, err := f.ShortestPathIn(1, 3, nil, nil); err != nil || w != 3 {
		t.Fatalf("ShortestPathIn(1, 3): weight %g, %v; want 3", w, err)
	}
}

// grid builds an nxn unit-weight grid — the tie-heavy worst case.
func grid(t testing.TB, n int) *Graph {
	g := New(false)
	id := func(r, c int) VertexID { return VertexID(r*n + c + 1) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				if err := g.AddEdge(id(r, c), id(r, c+1), 1); err != nil {
					t.Fatal(err)
				}
			}
			if r+1 < n {
				if err := g.AddEdge(id(r, c), id(r+1, c), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

func BenchmarkShortestPathMap(b *testing.B) {
	g := grid(b, 20)
	src, dst := VertexID(1), VertexID(400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.ShortestPath(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShortestPathFrozen(b *testing.B) {
	g := grid(b, 20)
	f := g.Frozen()
	src, dst := VertexID(1), VertexID(400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.ShortestPathIn(src, dst, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKShortestMap(b *testing.B) {
	g := grid(b, 10)
	src, dst := VertexID(1), VertexID(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.KShortestPaths(src, dst, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKShortestFrozen(b *testing.B) {
	g := grid(b, 10)
	f := g.Frozen()
	src, dst := VertexID(1), VertexID(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := f.KShortestPathsIn(src, dst, 4, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
