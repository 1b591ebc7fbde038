package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// maskBlocked returns a copy of m that also holds the blocked vertices
// (by dense index, nil = none) down: a dense mask tested on every arc,
// which a search under the equivalent Restriction must match.
func maskBlocked(f *Frozen, m *LiveMask, blocked []bool) *LiveMask {
	both := f.NewLiveMask()
	copy(both.downArc, m.downArc)
	for i := range both.downVertex {
		both.downVertex[i] = m.downVertex[i] || (blocked != nil && blocked[i])
	}
	return both
}

// shortestPathDenseMask is the restricted search's oracle: the
// unrestricted CSR scan under maskBlocked. Kept as what ShortestPathIn
// must equal.
func shortestPathDenseMask(f *Frozen, src, dst VertexID, blocked []bool, m *LiveMask) ([]VertexID, float64, error) {
	return f.ShortestPathIn(src, dst, nil, maskBlocked(f, m, blocked))
}

// avoidingDenseMask is the avoiding search's oracle, the same way.
func avoidingDenseMask(f *Frozen, src, dst VertexID, blocked []bool, m *LiveMask, avoid *AvoidSet, spread VertexID) ([]VertexID, error) {
	path, _, err := ShortestPathAvoiding[VertexID](f, nil, src, dst, nil, maskBlocked(f, m, blocked), avoid, spread)
	return path, err
}

// fabric is a random three-layer network — servers, ToRs, OPSs — with
// OPS–OPS chords, ToR–ToR links and parallel links, IDs dealt at random
// so no layer is an ID range, some vertices and links down. Integer
// weights make ties common.
type fabric struct {
	f        *Frozen
	mask     *LiveMask
	opss     []int32 // dense indices of the restrictable vertices
	vertices []VertexID
	edgeArcs [][]int32 // both arcs of every edge
}

func randomFabric(t *testing.T, rng *rand.Rand) fabric {
	t.Helper()
	nPM, nToR, nOPS := 3+rng.Intn(6), 2+rng.Intn(4), 3+rng.Intn(10)
	ids := rng.Perm(nPM + nToR + nOPS)
	vertex := func(i int) VertexID { return VertexID(ids[i] + 1) }
	pm := func(i int) VertexID { return vertex(i) }
	tor := func(i int) VertexID { return vertex(nPM + i) }
	ops := func(i int) VertexID { return vertex(nPM + nToR + i) }
	g := New(false)
	tag := int64(0)
	link := func(u, v VertexID) {
		for n := 1 + rng.Intn(5)/4; n > 0; n-- { // one in five is doubled
			tag++
			if err := g.AddEdgeTagged(u, v, float64(1+rng.Intn(3)), tag); err != nil {
				t.Fatalf("AddEdgeTagged: %v", err)
			}
		}
	}
	for i := 0; i < nPM; i++ {
		link(pm(i), tor(rng.Intn(nToR)))
		if rng.Intn(2) == 0 {
			link(pm(i), tor(rng.Intn(nToR)))
		}
	}
	for i := 0; i < nToR; i++ {
		g.AddVertex(tor(i))
		for j := 0; j < nOPS; j++ {
			if rng.Float64() < 0.6 {
				link(tor(i), ops(j))
			}
		}
		if i > 0 && rng.Intn(4) == 0 {
			link(tor(i), tor(i-1))
		}
	}
	for i := 0; i < nOPS; i++ {
		g.AddVertex(ops(i))
		for j := i + 1; j < nOPS; j++ {
			if rng.Float64() < 0.15 {
				link(ops(i), ops(j))
			}
		}
	}
	f := g.Frozen()
	fb := fabric{f: f, mask: f.NewLiveMask(), vertices: f.Vertices(), edgeArcs: make([][]int32, tag+1)}
	restrictable := make([]bool, f.VertexCount())
	for i := 0; i < nOPS; i++ {
		restrictable[f.index[ops(i)]] = true
		fb.opss = append(fb.opss, f.index[ops(i)])
	}
	f.IndexRestrictable(restrictable)
	for pos, tg := range f.ArcTags() {
		fb.edgeArcs[tg] = append(fb.edgeArcs[tg], int32(pos))
	}
	down := make(map[int32]bool)
	for i := range fb.vertices {
		if rng.Float64() < 0.1 {
			down[int32(i)] = true
		}
	}
	var arcs []int32
	for _, edge := range fb.edgeArcs {
		if rng.Float64() < 0.1 {
			arcs = append(arcs, edge...)
		}
	}
	fb.mask.Patch(down, arcs, true)
	return fb
}

// drawRestriction picks the admitted OPSs: none, one, a third, all, or a
// random half made to hold a down OPS when there is one.
func (fb fabric) drawRestriction(rng *rand.Rand) []int32 {
	pool := slices.Clone(fb.opss)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return pool[:1]
	case 2:
		return pool[:(len(pool)+2)/3]
	case 3:
		return pool
	}
	admit := pool[:len(pool)/2]
	for _, o := range pool[len(pool)/2:] {
		if fb.mask.downVertex[o] {
			return append(admit, o)
		}
	}
	return admit
}

// sameArcs reports whether two restrictions hand a search the same arcs
// at every vertex.
func sameArcs(a, b *Restriction) bool {
	for u := range a.f.ids {
		_, _, aCore, aIn := a.f.arcsAt(int32(u), a)
		_, _, bCore, bIn := b.f.arcsAt(int32(u), b)
		aIn, bIn = slices.Clone(aIn), slices.Clone(bIn)
		slices.Sort(aIn) // admission order decides the order of the groups
		slices.Sort(bIn)
		if !slices.Equal(aCore, bCore) || !slices.Equal(aIn, bIn) || a.bars(int32(u)) != b.bars(int32(u)) {
			return false
		}
	}
	return true
}

// TestRestrictedSearchEqualsDenseMask: under every kind of restriction —
// one Restriction refilled for all of them — both kernels return the
// path, weight and error of the dense-mask search they replace, whether
// the ends are servers, admitted OPSs or barred ones.
func TestRestrictedSearchEqualsDenseMask(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	found, refused := 0, 0
	for trial := 0; trial < 400; trial++ {
		fb := randomFabric(t, rng)
		f := fb.f
		r := f.NewRestriction()
		avoid := f.NewAvoidSet()
		for round := 0; round < 12; round++ {
			admit := fb.drawRestriction(rng)
			r.Reset()
			fresh := f.NewRestriction()
			blocked := make([]bool, f.VertexCount())
			for _, o := range fb.opss {
				blocked[o] = true
			}
			for _, o := range admit {
				r.Admit(o)
				fresh.Admit(o)
				blocked[o] = false
			}
			r.Seal()
			fresh.Seal()
			if !sameArcs(r, fresh) {
				t.Fatalf("trial %d round %d: a refilled restriction differs from a fresh one admitting %v", trial, round, admit)
			}
			src := fb.vertices[rng.Intn(len(fb.vertices))]
			dst := fb.vertices[rng.Intn(len(fb.vertices))]
			if rng.Intn(4) == 0 { // an OPS end, admitted or not
				src = fb.vertices[fb.opss[rng.Intn(len(fb.opss))]]
			}
			name := fmt.Sprintf("trial %d round %d: %d->%d admitting %v", trial, round, src, dst, admit)

			want, wantW, wantErr := shortestPathDenseMask(f, src, dst, blocked, fb.mask)
			got, gotW, err := f.ShortestPathIn(src, dst, r, fb.mask)
			if !pathsEqual(got, want) || gotW != wantW || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: ShortestPathIn = %v, %g, %v; dense mask %v, %g, %v", name, got, gotW, err, want, wantW, wantErr)
			}
			if err == nil {
				found++
			} else {
				refused++
			}

			avoid.Reset()
			for i := range fb.vertices {
				if rng.Float64() < 0.25 {
					avoid.AddVertex(int32(i))
				}
			}
			for _, arcs := range fb.edgeArcs {
				if rng.Float64() < 0.25 {
					avoid.AddArcs(arcs)
				}
			}
			spread := VertexID(rng.Intn(len(fb.vertices) + 2))
			want, wantErr = avoidingDenseMask(f, src, dst, blocked, fb.mask, avoid, spread)
			got, _, err = ShortestPathAvoiding[VertexID](f, nil, src, dst, r, fb.mask, avoid, spread)
			if !pathsEqual(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: ShortestPathAvoiding (spread %d) = %v, %v; dense mask %v, %v", name, spread, got, err, want, wantErr)
			}
		}
	}
	if found < 1000 || refused < 500 {
		t.Fatalf("%d searches found a path and %d did not: the cases do not exercise both", found, refused)
	}
}

// fleetFabric is the benchmark fleets' network at pool size ops: four
// ToRs each wired to every OPS, eight dual-homed servers. It returns two
// servers with no ToR in common and the restriction to one OPS.
func fleetFabric(tb testing.TB, ops int) (f *Frozen, src, dst VertexID, r *Restriction) {
	tb.Helper()
	g := New(false)
	tor := func(i int) VertexID { return VertexID(1 + i) }
	pm := func(i int) VertexID { return VertexID(5 + i) }
	for i := 0; i < 8; i++ {
		_ = g.AddEdge(pm(i), tor(i/4*2), 1)
		_ = g.AddEdge(pm(i), tor(i/4*2+1), 1)
	}
	for o := 0; o < ops; o++ {
		for i := 0; i < 4; i++ {
			_ = g.AddEdge(tor(i), VertexID(13+o), 5)
		}
	}
	f = g.Frozen()
	restrictable := make([]bool, f.VertexCount())
	for o := 0; o < ops; o++ {
		restrictable[f.index[VertexID(13+o)]] = true
	}
	f.IndexRestrictable(restrictable)
	r = f.NewRestriction()
	r.Admit(f.index[VertexID(13+ops/2)])
	r.Seal()
	return f, pm(0), pm(7), r
}

// TestRestrictedSearchCostFollowsTheSlice: the arcs a search under a
// one-OPS restriction relaxes, and the search-state entries it restores
// after, are the same few on a 300-OPS and a 1200-OPS fabric, where the
// settled vertices' CSR regions — what the dense-mask search scanned —
// and the vertex count — what a whole-state reset rewrote — grow with
// the pool.
func TestRestrictedSearchCostFollowsTheSlice(t *testing.T) {
	relaxed := func(ops int) (restricted, csr int, resets int64) {
		f, src, dst, r := fleetFabric(t, ops)
		s := f.getScratch()
		s.restrict = r
		di := f.index[dst]
		f.dijkstra(f.index[src], di, false, s)
		if path := f.extractPath(f.index[src], di, s); len(path) != 5 {
			t.Fatalf("ops=%d: path %v, want server-ToR-OPS-ToR-server", ops, path)
		}
		for u, done := range s.done {
			if done && int32(u) != di { // the search stops at dst before relaxing it
				_, _, core, in := f.arcsAt(int32(u), r)
				restricted += len(core) + len(in)
				csr += int(f.offsets[u+1] - f.offsets[u])
			}
		}
		f.putScratch(s)
		return restricted, csr, f.SearchResets()
	}
	small, smallCSR, smallResets := relaxed(300)
	big, bigCSR, bigResets := relaxed(1200)
	if small != big || small > 40 {
		t.Fatalf("restricted search relaxes %d arcs at 300 OPSs and %d at 1200, want the same few", small, big)
	}
	if smallResets != bigResets || smallResets == 0 || smallResets > int64(small)+1 {
		t.Fatalf("restricted search restores %d entries at 300 OPSs and %d at 1200, want the same few (it relaxes %d arcs)", smallResets, bigResets, small)
	}
	if smallCSR < 300 || bigCSR < 3*smallCSR {
		t.Fatalf("settled CSR regions hold %d and %d arcs: the fabric no longer makes the dense scan grow with the pool", smallCSR, bigCSR)
	}
}

// A warm restricted search allocates its result and nothing else, and
// refilling a warm Restriction allocates nothing.
func TestRestrictedSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch is dropped at random under -race")
	}
	f, src, dst, r := fleetFabric(t, 300)
	buf := make([]VertexID, 0, 8)
	if allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := f.ShortestPathIn(src, dst, r, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("ShortestPathIn allocates %.0f times, want its result only", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		r.Reset()
		for o := int32(20); o < 60; o++ {
			r.Admit(o)
		}
		r.Seal()
		var err error
		if buf, _, err = ShortestPathAvoiding(f, buf[:0], src, dst, r, nil, nil, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("refill + ShortestPathAvoiding allocates %.0f times, want 0", allocs)
	}
}

// BenchmarkRestrictedSearch is one in-slice leg by each kernel under a
// one-OPS restriction; neither kernel's ns/op should grow with the pool.
func BenchmarkRestrictedSearch(b *testing.B) {
	for _, ops := range []int{300, 1200} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			f, src, dst, r := fleetFabric(b, ops)
			buf := make([]VertexID, 0, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := f.ShortestPathIn(src, dst, r, nil); err != nil {
					b.Fatal(err)
				}
				var err error
				if buf, _, err = ShortestPathAvoiding(f, buf[:0], src, dst, r, nil, nil, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
