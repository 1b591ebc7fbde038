package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// avoidCase is one random search problem over a small tagged
// multigraph: a restriction, a liveness mask and an avoid set, all
// drawn independently, kept in the dense forms the search reads.
type avoidCase struct {
	f *Frozen
	// blocked is the restriction as the oracles read it, restrict as the
	// search does: every third vertex and every blocked one restrictable,
	// the unblocked of those admitted. Both nil when nothing is blocked.
	blocked  []bool
	restrict *Restriction
	mask     *LiveMask
	avoid    *AvoidSet
	src, dst VertexID
	spread   VertexID
}

// randomAvoidCase draws a graph of n vertices (IDs 1..n) with a
// spanning chain plus extra edges — some parallel, integer weights so
// ties are common — and marks each vertex and edge blocked, down or
// avoided with the given probabilities. Every edge carries its own tag,
// so both of its arcs are masked and avoided together.
func randomAvoidCase(t *testing.T, rng *rand.Rand, n, extra int, pBlock, pDown, pAvoid float64) avoidCase {
	t.Helper()
	g := New(false)
	tag := int64(0)
	add := func(u, v int) {
		tag++
		if err := g.AddEdgeTagged(VertexID(u), VertexID(v), float64(1+rng.Intn(3)), tag); err != nil {
			t.Fatalf("AddEdgeTagged: %v", err)
		}
	}
	for v := 1; v < n; v++ {
		add(v, v+1)
	}
	for i := 0; i < extra; i++ {
		if u, v := 1+rng.Intn(n), 1+rng.Intn(n); u != v {
			add(u, v)
		}
	}
	f := g.Frozen()
	c := avoidCase{f: f, mask: f.NewLiveMask(), avoid: f.NewAvoidSet(),
		src: VertexID(1 + rng.Intn(n)), dst: VertexID(1 + rng.Intn(n)), spread: VertexID(rng.Intn(n + 1))}
	if pBlock > 0 {
		c.blocked = make([]bool, n)
	}
	for i := int32(0); i < int32(n); i++ {
		if rng.Float64() < pBlock {
			c.blocked[i] = true
		}
		if rng.Float64() < pDown {
			c.mask.Patch(map[int32]bool{i: true}, nil, true)
		}
		if rng.Float64() < pAvoid {
			c.avoid.AddVertex(i)
		}
	}
	if c.blocked != nil {
		restrictable := make([]bool, n)
		for i := range restrictable {
			restrictable[i] = c.blocked[i] || i%3 == 0
		}
		f.IndexRestrictable(restrictable)
		c.restrict = f.NewRestriction()
		for i := int32(0); i < int32(n); i++ {
			if !c.blocked[i] {
				c.restrict.Admit(i)
			}
		}
		c.restrict.Seal()
	}
	for tg := int64(1); tg <= tag; tg++ {
		down, avoided := rng.Float64() < pDown, rng.Float64() < pAvoid
		if !down && !avoided {
			continue
		}
		var arcs []int32
		for pos, at := range f.ArcTags() {
			if at == tg {
				arcs = append(arcs, int32(pos))
			}
		}
		if down {
			c.mask.Patch(nil, arcs, true)
		}
		if avoided {
			c.avoid.AddArcs(arcs)
		}
	}
	return c
}

// avoidCost is what ShortestPathAvoiding minimizes, in order.
type avoidCost struct {
	crossings int
	weight    float64
}

func (a avoidCost) less(b avoidCost) bool {
	if a.crossings != b.crossings {
		return a.crossings < b.crossings
	}
	return a.weight < b.weight-1e-9
}

// usable reports whether the search may take arc e into vertex v.
func (c avoidCase) usable(e, v int32) bool {
	return !c.mask.downArc[e] && !c.mask.downVertex[v] && (c.blocked == nil || !c.blocked[v])
}

// bruteForce enumerates every simple src→dst path arc by arc and
// returns the least (crossings, weight); ok is false when there is
// none.
func (c avoidCase) bruteForce() (best avoidCost, ok bool) {
	f := c.f
	si, di := f.index[c.src], f.index[c.dst]
	if c.mask.downVertex[si] || c.mask.downVertex[di] || (c.blocked != nil && (c.blocked[si] || c.blocked[di])) {
		return best, false
	}
	visited := make([]bool, len(f.ids))
	var walk func(u int32, sofar avoidCost)
	walk = func(u int32, sofar avoidCost) {
		if u == di {
			if !ok || sofar.less(best) {
				best, ok = sofar, true
			}
			return
		}
		visited[u] = true
		for e := f.offsets[u]; e < f.offsets[u+1]; e++ {
			v := f.targets[e]
			if visited[v] || !c.usable(e, v) {
				continue
			}
			next := avoidCost{sofar.crossings, sofar.weight + f.weights[e]}
			if c.avoid.arc[e] {
				next.crossings++
			}
			if c.avoid.vertex[v] && v != di {
				next.crossings++
			}
			walk(v, next)
		}
		visited[u] = false
	}
	walk(si, avoidCost{})
	return best, ok
}

// costOf prices a returned path, failing the test if it is not a simple
// src→dst walk over usable arcs. A hop between two vertices takes the
// best of their parallel arcs, as the search does.
func (c avoidCase) costOf(t *testing.T, path []VertexID) avoidCost {
	t.Helper()
	f := c.f
	if len(path) == 0 || path[0] != c.src || path[len(path)-1] != c.dst {
		t.Fatalf("path %v does not run %d->%d", path, c.src, c.dst)
	}
	var total avoidCost
	seen := make(map[VertexID]bool)
	for i, id := range path {
		if seen[id] {
			t.Fatalf("path %v visits %d twice", path, id)
		}
		seen[id] = true
		if i == 0 {
			continue
		}
		u, v := f.index[path[i-1]], f.index[id]
		hop, found := avoidCost{}, false
		for e := f.offsets[u]; e < f.offsets[u+1]; e++ {
			if f.targets[e] != v || !c.usable(e, v) {
				continue
			}
			arc := avoidCost{weight: f.weights[e]}
			if c.avoid.arc[e] {
				arc.crossings = 1
			}
			if !found || arc.less(hop) {
				hop, found = arc, true
			}
		}
		if !found {
			t.Fatalf("path %v: no usable arc %d->%d", path, path[i-1], id)
		}
		total.crossings += hop.crossings
		total.weight += hop.weight
		if c.avoid.vertex[v] && id != c.dst {
			total.crossings++
		}
	}
	return total
}

func (c avoidCase) search(buf []VertexID) ([]VertexID, error) {
	path, _, err := ShortestPathAvoiding(c.f, buf, c.src, c.dst, c.restrict, c.mask, c.avoid, c.spread)
	return path, err
}

// TestShortestPathAvoidingExact: on small random meshes the search's
// (crossings, weight) is the minimum over every simple path — so it
// returns a path clear of the avoid set exactly when the destination is
// reachable without it — and it fails exactly when no path exists.
func TestShortestPathAvoidingExact(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	clear := 0
	for trial := 0; trial < 1500; trial++ {
		c := randomAvoidCase(t, rng, 4+rng.Intn(5), rng.Intn(12), 0.1, 0.1, 0.35)
		want, reachable := c.bruteForce()
		got, err := c.search(nil)
		if !reachable {
			if !errors.Is(err, ErrNoPath) {
				t.Fatalf("trial %d: err = %v (path %v), want ErrNoPath", trial, err, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v, want a path of cost %+v", trial, err, want)
		}
		if cost := c.costOf(t, got); cost.less(want) || want.less(cost) {
			t.Fatalf("trial %d: %d->%d path %v costs %+v, brute force finds %+v", trial, c.src, c.dst, got, cost, want)
		}
		if want.crossings == 0 {
			clear++
		}
	}
	if clear < 300 || clear > 1200 {
		t.Fatalf("%d of 1500 trials had a clear path: the cases do not exercise both outcomes", clear)
	}
}

// TestShortestPathAvoidingNothingMatchesMasked: with nothing to avoid
// the path weighs what the plain search's does, whatever the
// restriction, the mask and the spread, and both fail together.
func TestShortestPathAvoidingNothingMatchesMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 600; trial++ {
		c := randomAvoidCase(t, rng, 10+rng.Intn(40), rng.Intn(120), 0.15, 0.1, 0)
		avoid := c.avoid // empty
		if trial%2 == 0 {
			avoid = nil
		}
		_, want, wantErr := shortestPathDenseMask(c.f, c.src, c.dst, c.blocked, c.mask)
		got, _, err := ShortestPathAvoiding[VertexID](c.f, nil, c.src, c.dst, c.restrict, c.mask, avoid, c.spread)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: avoiding err %v, masked err %v", trial, err, wantErr)
		}
		if err != nil {
			continue
		}
		if cost := c.costOf(t, got); cost.crossings != 0 || math.Abs(cost.weight-want) > 1e-9 {
			t.Fatalf("trial %d: %d->%d path %v costs %+v, masked search %g", trial, c.src, c.dst, got, cost, want)
		}
	}
}

// TestShortestPathAvoidingSpread: spread changes which of several
// equally good paths comes back, never how good it is, and the same
// spread always gives the same path.
func TestShortestPathAvoidingSpread(t *testing.T) {
	// src 1 and dst 2 joined through eight interchangeable middles.
	g := New(false)
	for mid := 3; mid <= 10; mid++ {
		for _, end := range []VertexID{1, 2} {
			if err := g.AddEdge(end, VertexID(mid), 1); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
		}
	}
	f := g.Frozen()
	avoid := f.NewAvoidSet()
	avoid.AddVertex(f.index[3]) // the lowest-ID middle is the primary's
	middles := make(map[VertexID]bool)
	for spread := VertexID(0); spread <= 10; spread++ {
		path, _, err := ShortestPathAvoiding[VertexID](f, nil, 1, 2, nil, nil, avoid, spread)
		if err != nil || len(path) != 3 || path[1] == 3 {
			t.Fatalf("spread %d: path %v, %v; want 1-x-2 off vertex 3", spread, path, err)
		}
		again, _, _ := ShortestPathAvoiding[VertexID](f, nil, 1, 2, nil, nil, avoid, spread)
		if !pathsEqual(path, again) {
			t.Fatalf("spread %d: %v then %v", spread, path, again)
		}
		if spread >= 4 && path[1] != spread {
			t.Fatalf("spread %d: middle %d, want the spread vertex itself (first in its own rotation)", spread, path[1])
		}
		middles[path[1]] = true
	}
	if len(middles) != 7 {
		t.Fatalf("spreads 0..10 used middles %v, want all seven spare ones", middles)
	}
}

// TestShortestPathAvoidingEdges: the degenerate inputs.
func TestShortestPathAvoidingEdges(t *testing.T) {
	g := randomWeightedGraph(t, 3, 12, 20)
	f := g.Frozen()
	if _, _, err := ShortestPathAvoiding[VertexID](f, nil, 99, 1, nil, nil, nil, 0); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, _, err := ShortestPathAvoiding[VertexID](f, nil, 1, 99, nil, nil, nil, 0); err == nil {
		t.Fatal("unknown destination accepted")
	}
	d := New(true)
	if err := d.AddEdge(1, 2, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if _, _, err := ShortestPathAvoiding[VertexID](d.Frozen(), nil, 1, 2, nil, nil, nil, 0); err == nil {
		t.Fatal("directed graph accepted")
	}
	// Results are appended: what the buffer held stays, and src == dst
	// is the one-vertex path.
	buf := []VertexID{7}
	buf, _, err := ShortestPathAvoiding(f, buf, 4, 4, nil, nil, nil, 0)
	if err != nil || !pathsEqual(buf, []VertexID{7, 4}) {
		t.Fatalf("src == dst: %v, %v; want [7 4]", buf, err)
	}
	buf, _, err = ShortestPathAvoiding(f, buf, 1, 12, nil, nil, nil, 0)
	if err != nil || buf[0] != 7 || buf[1] != 4 || buf[2] != 1 || buf[len(buf)-1] != 12 {
		t.Fatalf("appended path: %v, %v", buf, err)
	}
	// An AvoidSet is refilled per search: Reset leaves nothing behind.
	avoid := f.NewAvoidSet()
	avoid.AddVertex(2)
	avoid.AddArcs([]int32{0, 1, 1})
	avoid.Reset()
	for i, set := range avoid.vertex {
		if set {
			t.Fatalf("vertex %d still avoided after Reset", i)
		}
	}
	for p, set := range avoid.arc {
		if set {
			t.Fatalf("arc %d still avoided after Reset", p)
		}
	}
}

// BenchmarkShortestPathAvoiding measures one PM→PM segment across a
// three-layer fabric where every ToR reaches every OPS — the shape that
// makes a one-ended search pop the whole optical layer first.
func BenchmarkShortestPathAvoiding(b *testing.B) {
	const tors, pmsPerToR, opss = 40, 4, 1200
	g := New(false)
	id := VertexID(0)
	next := func() VertexID { id++; return id }
	var torIDs, pmIDs []VertexID
	for i := 0; i < tors; i++ {
		tor := next()
		torIDs = append(torIDs, tor)
		for j := 0; j < pmsPerToR; j++ {
			pm := next()
			pmIDs = append(pmIDs, pm)
			_ = g.AddEdge(pm, tor, 1)
		}
	}
	for i := 0; i < opss; i++ {
		ops := next()
		for _, tor := range torIDs {
			_ = g.AddEdge(tor, ops, 1)
		}
	}
	f := g.Frozen()
	avoid := f.NewAvoidSet()
	primary, _, _ := f.ShortestPathIn(pmIDs[0], pmIDs[len(pmIDs)-1], nil, nil)
	for _, v := range primary[1 : len(primary)-1] {
		avoid.AddVertex(f.index[v])
	}
	buf := make([]VertexID, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, _, err = ShortestPathAvoiding(f, buf[:0], pmIDs[0], pmIDs[len(pmIDs)-1], nil, nil, avoid, torIDs[i%tors]); err != nil {
			b.Fatal(err)
		}
	}
}
