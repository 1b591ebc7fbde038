package sdn

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

// routeAvoiding is AppendRouteAvoiding for the tests that read only the
// route's nodes.
func (c *Controller) routeAvoiding(buf, stops []topology.NodeID, pool topology.Pool, avoid topology.Avoid) ([]topology.NodeID, error) {
	buf, _, err := c.AppendRouteAvoiding(buf, nil, stops, pool, avoid)
	return buf, err
}

// TestAppendRouteAvoidingLinks: the links a route comes back with are
// topology.AppendPathLinks of its nodes — VM legs crossing none, the legs
// joined once — whether each leg was searched, served by the memo from
// its stored hops, or searched with the memo off; and they are appended
// after what the caller's buffer held.
func TestAppendRouteAvoidingLinks(t *testing.T) {
	f := newFabric(t)
	warm, cold := f.controller(t), f.controller(t)
	cold.SetAlternativesCache(false)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 24; i++ {
			src, dst := f.vms[i%len(f.vms)], f.vms[len(f.vms)-1-i%len(f.vms)]
			stops := []topology.NodeID{src, f.topo.Node(src).Host, f.pms[(7*i+3)%len(f.pms)], f.topo.Node(dst).Host, dst}
			avoid := topology.Avoid{Spread: f.opss[i%len(f.opss)]}
			for _, c := range []*Controller{warm, cold} {
				prefix := []topology.LinkID{99}
				route, links, err := c.AppendRouteAvoiding(nil, prefix, stops, topology.Pool{}, avoid)
				if err != nil {
					t.Fatalf("pass %d chain %d: %v", pass, i, err)
				}
				want, ok := f.topo.AppendPathLinks(prefix[:1:1], route)
				if !ok || !slices.Equal(links, want) {
					t.Fatalf("pass %d chain %d: route %v came with links %v, want %v", pass, i, route, links, want)
				}
			}
		}
	}
	if hits, _ := warm.AlternativesCacheStats(); hits == 0 {
		t.Fatal("the second pass hit nothing: the memo's links went untested")
	}
}

// routeAvoid is the avoid set of a chain whose primary is the given
// pm1→pm2 route: its transit nodes and its links.
func routeAvoid(t *testing.T, topo *topology.Topology, route []topology.NodeID) topology.Avoid {
	t.Helper()
	avoid := topology.Avoid{Nodes: route[1 : len(route)-1]}
	for i := 0; i+1 < len(route); i++ {
		l := topo.LinkBetween(route[i], route[i+1])
		if l == nil {
			t.Fatalf("route %v: no link %d-%d", route, route[i], route[i+1])
		}
		avoid.Links = append(avoid.Links, l.ID)
	}
	return avoid
}

// TestAppendRouteAvoidingMemo: the second identical question is a memo
// hit that equals a fresh search, what comes back is the caller's own
// (appended to its buffer, never aliasing the stored answer), and every
// part of the question — restriction, avoided nodes, avoided links,
// spread — is part of the key.
func TestAppendRouteAvoidingMemo(t *testing.T) {
	topo, pm1, pm2, opss := multiRouteTopo(t)
	c, _ := NewController(topo)
	cold, _ := NewController(topo)
	cold.SetAlternativesCache(false)
	primary, err := c.ComputePath(pm1, pm2, nil)
	if err != nil {
		t.Fatalf("ComputePath: %v", err)
	}
	avoid := routeAvoid(t, topo, primary)

	first, err := c.routeAvoiding(nil, []topology.NodeID{pm1, pm2}, topology.Pool{}, avoid)
	if err != nil {
		t.Fatalf("AppendRouteAvoiding: %v", err)
	}
	if !slices.Contains(first, opss[1]) {
		t.Fatalf("standby of route 0 = %v, want route 1 (the cheapest disjoint one)", first)
	}
	computed := c.PathComputations()
	prefix := []topology.NodeID{7, 7}
	again, err := c.routeAvoiding(prefix, []topology.NodeID{pm1, pm2}, topology.Pool{}, avoid)
	if err != nil {
		t.Fatalf("AppendRouteAvoiding (memo): %v", err)
	}
	if !slices.Equal(again[:2], prefix) || !slices.Equal(again[2:], first) {
		t.Fatalf("memo hit = %v, want %v appended to %v", again, first, prefix)
	}
	if hits, misses := c.AlternativesCacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if c.PathComputations() != computed {
		t.Fatal("memo hit ran a search")
	}
	fresh, err := cold.routeAvoiding(nil, []topology.NodeID{pm1, pm2}, topology.Pool{}, avoid)
	if err != nil || !slices.Equal(fresh, first) {
		t.Fatalf("fresh search = %v, %v; memo served %v", fresh, err, first)
	}
	if h, m := cold.AlternativesCacheStats(); h != 0 || m != 0 {
		t.Fatalf("disabled memo counted %d/%d", h, m)
	}
	// Scribbling on either answer must not reach the stored one.
	first[1], again[3] = 0, 0
	third, _ := c.routeAvoiding(nil, []topology.NodeID{pm1, pm2}, topology.Pool{}, avoid)
	if !slices.Equal(third, fresh) {
		t.Fatalf("stored answer was aliased: %v, want %v", third, fresh)
	}

	// Each of these differs from the question above in one part only.
	_, missesBefore := c.AlternativesCacheStats()
	variants := []struct {
		restrict topology.NodeSet
		avoid    topology.Avoid
	}{
		{topology.NewNodeSet(opss[0], opss[1], opss[2]), avoid},
		{nil, topology.Avoid{Nodes: avoid.Nodes[:1], Links: avoid.Links}},
		{nil, topology.Avoid{Nodes: avoid.Nodes, Links: avoid.Links[:1]}},
		{nil, topology.Avoid{Nodes: avoid.Nodes, Links: avoid.Links, Spread: opss[2]}},
	}
	for i, v := range variants {
		if _, err := c.routeAvoiding(nil, []topology.NodeID{pm1, pm2}, topology.NewPool(v.restrict), v.avoid); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
	if _, misses := c.AlternativesCacheStats(); misses != missesBefore+int64(len(variants)) {
		t.Fatalf("%d variants missed %d times: some part of the question is not in the key", len(variants), misses-missesBefore)
	}
}

// TestAppendRouteAvoidingMemoGenerations: an answer is never served
// across a liveness or a structural generation change.
func TestAppendRouteAvoidingMemoGenerations(t *testing.T) {
	topo, pm1, pm2, opss := multiRouteTopo(t)
	c, _ := NewController(topo)
	primary, _ := c.ComputePath(pm1, pm2, nil)
	avoid := routeAvoid(t, topo, primary)
	ask := func(want topology.NodeID, when string) {
		t.Helper()
		for i := 0; i < 2; i++ { // the search, then its memo entry
			got, err := c.routeAvoiding(nil, []topology.NodeID{pm1, pm2}, topology.Pool{}, avoid)
			if err != nil || !slices.Contains(got, want) {
				t.Fatalf("%s (ask %d): %v, %v; want the route over node %d", when, i, got, err, want)
			}
		}
	}
	ask(opss[1], "at first")
	// Liveness: route 1 dies, the memo must not route over the corpse.
	if err := topo.SetDown(topology.NewFailures([]topology.NodeID{opss[1]}, nil), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	ask(opss[2], "route 1 down")
	if err := topo.SetDown(topology.NewFailures([]topology.NodeID{opss[1]}, nil), false); err != nil {
		t.Fatalf("SetDown(false): %v", err)
	}
	ask(opss[1], "route 1 back")
	// Structure: a new route cheaper than route 1 appears.
	a, b := topo.AddToR(0), topo.AddToR(1)
	fast := topo.AddOPS(false, topology.Resources{})
	for i, hop := range [][2]topology.NodeID{{pm1, a}, {a, fast}, {fast, b}, {b, pm2}} {
		kind := topology.LinkBoundary
		if i == 0 || i == 3 {
			kind = topology.LinkElectronic
		}
		if _, err := topo.AddLink(hop[0], hop[1], kind, 10, 1.5); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
	}
	ask(fast, "new route grafted")
}

// TestAppendRouteAvoidingErrorsNotCached: a failed search is asked again.
func TestAppendRouteAvoidingErrorsNotCached(t *testing.T) {
	topo, pm1, pm2, _ := multiRouteTopo(t)
	c, _ := NewController(topo)
	none := topology.NodeSet{}
	for i := 0; i < 2; i++ {
		if _, err := c.routeAvoiding(nil, []topology.NodeID{pm1, pm2}, topology.NewPool(none), topology.Avoid{}); err == nil {
			t.Fatal("route found through an empty OPS pool")
		}
	}
	if hits, misses := c.AlternativesCacheStats(); hits != 0 || misses != 2 {
		t.Fatalf("stats = %d/%d, want 0 hits, 2 misses", hits, misses)
	}
}

// pathLatency sums the link latencies along a path.
func pathLatency(t *testing.T, topo *topology.Topology, path []topology.NodeID) float64 {
	t.Helper()
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		l := topo.LinkBetween(path[i], path[i+1])
		if l == nil {
			t.Fatalf("path %v: no link %d-%d", path, path[i], path[i+1])
		}
		total += l.LatencyMicros
	}
	return total
}

// overlap counts the avoided nodes and links a path crosses.
func overlap(t *testing.T, topo *topology.Topology, path []topology.NodeID, avoid topology.Avoid) int {
	t.Helper()
	n := 0
	for i, id := range path {
		if slices.Contains(avoid.Nodes, id) {
			n++
		}
		if i > 0 && slices.Contains(avoid.Links, topo.LinkBetween(path[i-1], id).ID) {
			n++
		}
	}
	return n
}

// TestAvoidingNeverWorseThanYen holds the direct search against the
// planner it replaced: over random fabrics, pools and primaries, no
// alternative among Yen's k shortest overlaps the primary less than the
// avoiding path does, and none that overlaps as little is cheaper.
func TestAvoidingNeverWorseThanYen(t *testing.T) {
	checked, yenBlind := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		cfg := topology.DefaultGenConfig()
		cfg.Seed = seed
		cfg.Racks = 6
		cfg.OPSCount = 8
		cfg.ToRUplinks = 2 + int(seed%3)
		cfg.DualHomeFrac = 0.6
		topo, err := topology.Generate(cfg)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		c, _ := NewController(topo)
		rng := rand.New(rand.NewSource(seed))
		pms := topo.NodeIDs(topology.KindPhysicalMachine)
		opss := topo.NodeIDs(topology.KindOPS)
		for trial := 0; trial < 25; trial++ {
			src, dst := pms[rng.Intn(len(pms))], pms[rng.Intn(len(pms))]
			if src == dst {
				continue
			}
			var pool topology.NodeSet
			if trial%2 == 1 {
				pool = topology.NodeSet{}
				for _, o := range opss {
					if rng.Intn(4) > 0 {
						pool = append(pool, o)
					}
				}
			}
			primary, err := c.ComputePath(src, dst, pool)
			if err != nil {
				continue
			}
			avoid := routeAvoid(t, topo, primary)
			avoid.Spread = opss[rng.Intn(len(opss))]
			ours, err := c.routeAvoiding(nil, []topology.NodeID{src, dst}, topology.NewPool(pool), avoid)
			if err != nil {
				t.Fatalf("seed %d %d->%d: %v, but the primary %v exists", seed, src, dst, err, primary)
			}
			alts, err := c.PathAlternatives(src, dst, 8, topology.NewPool(pool))
			if err != nil {
				t.Fatalf("PathAlternatives: %v", err)
			}
			checked++
			oursOverlap, oursLatency := overlap(t, topo, ours, avoid), pathLatency(t, topo, ours)
			yenBest := -1
			for _, alt := range alts {
				o := overlap(t, topo, alt, avoid)
				if yenBest < 0 || o < yenBest {
					yenBest = o
				}
				if o < oursOverlap || (o == oursOverlap && pathLatency(t, topo, alt) < oursLatency-1e-9) {
					t.Fatalf("seed %d %d->%d: Yen's %v (overlap %d, %.1f us) beats ours %v (overlap %d, %.1f us)",
						seed, src, dst, alt, o, pathLatency(t, topo, alt), ours, oursOverlap, oursLatency)
				}
			}
			if yenBest > oursOverlap {
				yenBlind++
			}
		}
	}
	if checked < 150 {
		t.Fatalf("only %d cases checked", checked)
	}
	if yenBlind == 0 {
		t.Fatal("Yen's 8 shortest never overlapped more than the avoiding path: the fabrics do not show the defect the search fixes")
	}
}

// TestComputePathViaOneRestriction: the restriction is densified once
// per call and must route every segment exactly as per-segment
// ComputePath does, pool or none.
func TestComputePathViaOneRestriction(t *testing.T) {
	cfg := topology.DefaultGenConfig()
	cfg.DualHomeFrac = 1
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	c, _ := NewController(topo)
	pms := topo.NodeIDs(topology.KindPhysicalMachine)
	opss := topo.NodeIDs(topology.KindOPS)
	pool := topology.NewNodeSet(opss[0], opss[2], opss[3])
	for _, restrict := range []topology.NodeSet{nil, pool} {
		stops := []topology.NodeID{pms[0], pms[9], pms[9], pms[20], pms[3]}
		got, err := c.ComputePathVia(stops[0], stops[1:len(stops)-1], stops[len(stops)-1], restrict)
		if err != nil {
			t.Fatalf("ComputePathVia: %v", err)
		}
		want := []topology.NodeID{stops[0]}
		for i := 0; i+1 < len(stops); i++ {
			if stops[i] == stops[i+1] {
				continue
			}
			seg, err := c.ComputePath(stops[i], stops[i+1], restrict)
			if err != nil {
				t.Fatalf("ComputePath: %v", err)
			}
			want = append(want, seg[1:]...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("restrict %v: via %v, per-segment %v", restrict, got, want)
		}
		for _, n := range got {
			if restrict != nil && topo.Node(n).Kind == topology.KindOPS && !restrict.Has(n) {
				t.Fatalf("via path %v crosses OPS %d outside the pool", got, n)
			}
		}
	}
}

// TestAppendRouteAvoidingLegs: a route is its legs joined once at each
// stop, a repeated stop makes no leg, every leg is its own memo entry,
// and a leg without a path fails the route.
func TestAppendRouteAvoidingLegs(t *testing.T) {
	topo, pm1, pm2, opss := multiRouteTopo(t)
	c, _ := NewController(topo)
	primary, _ := c.ComputePath(pm1, pm2, nil)
	avoid := routeAvoid(t, topo, primary)
	stops := []topology.NodeID{pm1, opss[1], opss[1], pm2, pm1}
	got, err := c.routeAvoiding([]topology.NodeID{9}, stops, topology.Pool{}, avoid)
	if err != nil {
		t.Fatalf("AppendRouteAvoiding: %v", err)
	}
	want := []topology.NodeID{9}
	for i, leg := range [][2]topology.NodeID{{pm1, opss[1]}, {opss[1], pm2}, {pm2, pm1}} {
		path, err := c.routeAvoiding(nil, leg[:], topology.Pool{}, avoid)
		if err != nil {
			t.Fatalf("leg %d: %v", i, err)
		}
		if i > 0 {
			path = path[1:]
		}
		want = append(want, path...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("route %v, legs joined %v", got, want)
	}
	if hits, misses := c.AlternativesCacheStats(); hits != 3 || misses != 3 {
		t.Fatalf("stats = %d hits / %d misses, want 3/3 (three legs searched, then each asked alone)", hits, misses)
	}
	if out, err := c.routeAvoiding(nil, []topology.NodeID{pm1, pm1}, topology.Pool{}, avoid); err != nil || len(out) != 0 {
		t.Fatalf("route with no leg: %v, %v; want nothing", out, err)
	}
	if err := topo.SetDown(topology.NewFailures([]topology.NodeID{pm2}, nil), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	if _, err := c.routeAvoiding(nil, stops, topology.Pool{}, avoid); err == nil {
		t.Fatal("route through a dead stop succeeded")
	}
}

// TestAppendRouteAvoidingConcurrent: planners on several goroutines
// share the controller's memo and the snapshot's pooled buffers while
// liveness changes underneath them; every answer must be a live route.
// Run under -race.
func TestAppendRouteAvoidingConcurrent(t *testing.T) {
	topo, pm1, pm2, opss := multiRouteTopo(t)
	c, _ := NewController(topo)
	primary, _ := c.ComputePath(pm1, pm2, nil)
	avoid := routeAvoid(t, topo, primary)
	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for down := true; ; down = !down {
			select {
			case <-stop:
				_ = topo.SetDown(topology.NewFailures([]topology.NodeID{opss[2]}, nil), false)
				return
			default:
				_ = topo.SetDown(topology.NewFailures([]topology.NodeID{opss[2]}, nil), down)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := avoid
			a.Spread = opss[g%len(opss)]
			for i := 0; i < 300; i++ {
				got, err := c.routeAvoiding(nil, []topology.NodeID{pm1, pm2, pm1}, topology.Pool{}, a)
				if err != nil || got[0] != pm1 || got[len(got)-1] != pm1 || !slices.Contains(got, pm2) {
					t.Errorf("goroutine %d: route %v, %v", g, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-flipped
}
