package sdn

import (
	"reflect"
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

// TestPathAlternativesCacheHitsAndYenSavings: a repeated identical
// query is served from the memo — one Yen run, one miss, then hits.
func TestPathAlternativesCacheHitsAndYenSavings(t *testing.T) {
	topo, ids := chainTopo(t)
	c, _ := NewController(topo)
	first, err := c.PathAlternatives(ids["pm1"], ids["pm2"], 3, topology.Pool{})
	if err != nil {
		t.Fatalf("PathAlternatives: %v", err)
	}
	yenAfterFirst := c.YenRuns()
	again, err := c.PathAlternatives(ids["pm1"], ids["pm2"], 3, topology.Pool{})
	if err != nil {
		t.Fatalf("PathAlternatives (cached): %v", err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("cached answer diverged: %v vs %v", first, again)
	}
	if c.YenRuns() != yenAfterFirst {
		t.Fatalf("cache hit ran Yen again (%d -> %d)", yenAfterFirst, c.YenRuns())
	}
	hits, misses := c.AlternativesCacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	// A different k or restriction is a different question.
	if _, err := c.PathAlternatives(ids["pm1"], ids["pm2"], 2, topology.Pool{}); err != nil {
		t.Fatalf("PathAlternatives k=2: %v", err)
	}
	restrict := topology.NewNodeSet(ids["ops1"], ids["ops2"])
	if _, err := c.PathAlternatives(ids["pm1"], ids["pm2"], 3, topology.NewPool(restrict)); err != nil {
		t.Fatalf("PathAlternatives restricted: %v", err)
	}
	if _, misses = c.AlternativesCacheStats(); misses != 3 {
		t.Fatalf("misses = %d, want 3 (distinct k and restriction keys)", misses)
	}
}

// TestPathAlternativesCacheStructuralInvalidation: a structural
// mutation (new links) must never serve the pre-mutation candidates.
func TestPathAlternativesCacheStructuralInvalidation(t *testing.T) {
	topo, ids := chainTopo(t)
	c, _ := NewController(topo)
	before, err := c.PathAlternatives(ids["pm1"], ids["pm2"], 4, topology.Pool{})
	if err != nil {
		t.Fatalf("PathAlternatives: %v", err)
	}
	if len(before) != 1 {
		t.Fatalf("chain topo should have exactly 1 route, got %d", len(before))
	}
	// Graft a second disjoint route pm1-tor3-tor4-pm2.
	tor3, tor4 := topo.AddToR(0), topo.AddToR(1)
	for _, hop := range [][2]topology.NodeID{
		{ids["pm1"], tor3}, {tor3, tor4}, {tor4, ids["pm2"]},
	} {
		if _, err := topo.AddLink(hop[0], hop[1], topology.LinkElectronic, 10, 1); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
	}
	after, err := c.PathAlternatives(ids["pm1"], ids["pm2"], 4, topology.Pool{})
	if err != nil {
		t.Fatalf("PathAlternatives after graft: %v", err)
	}
	if len(after) < 2 {
		t.Fatalf("post-mutation query served %d stale candidates, want the new route visible", len(after))
	}
}

// TestPathAlternativesCacheLivenessInvalidation: a liveness batch
// moves the live digest, so cached candidates that ride a dead link are
// never served, and the recovery's state is served its own again.
func TestPathAlternativesCacheLivenessInvalidation(t *testing.T) {
	topo, ids := chainTopo(t)
	// Second route so a failure leaves something to find.
	tor3, tor4 := topo.AddToR(0), topo.AddToR(1)
	var spare [3]topology.LinkID
	for i, hop := range [][2]topology.NodeID{
		{ids["pm1"], tor3}, {tor3, tor4}, {tor4, ids["pm2"]},
	} {
		l, err := topo.AddLink(hop[0], hop[1], topology.LinkElectronic, 10, 5)
		if err != nil {
			t.Fatalf("AddLink: %v", err)
		}
		spare[i] = l
	}
	c, _ := NewController(topo)
	before, err := c.PathAlternatives(ids["pm1"], ids["pm2"], 4, topology.Pool{})
	if err != nil {
		t.Fatalf("PathAlternatives: %v", err)
	}
	if len(before) < 2 {
		t.Fatalf("want both routes pre-failure, got %v", before)
	}
	// Kill the optical core: the cheap route dies, only the spare
	// remains. Serving the cached pair would route over a corpse.
	core := topo.LinkBetween(ids["ops1"], ids["ops2"])
	if core == nil {
		t.Fatal("no core link")
	}
	if err := topo.SetDown(topology.NewFailures(nil, []topology.LinkID{core.ID}), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	after, err := c.PathAlternatives(ids["pm1"], ids["pm2"], 4, topology.Pool{})
	if err != nil {
		t.Fatalf("PathAlternatives after failure: %v", err)
	}
	for _, path := range after {
		for i := 0; i+1 < len(path); i++ {
			if (path[i] == ids["ops1"] && path[i+1] == ids["ops2"]) ||
				(path[i] == ids["ops2"] && path[i+1] == ids["ops1"]) {
				t.Fatalf("stale candidate served over the dead core: %v", path)
			}
		}
	}
	// Recovery is a liveness change too — the cheap route must return.
	if err := topo.SetDown(topology.NewFailures(nil, []topology.LinkID{core.ID}), false); err != nil {
		t.Fatalf("SetDown(false): %v", err)
	}
	restored, err := c.PathAlternatives(ids["pm1"], ids["pm2"], 4, topology.Pool{})
	if err != nil {
		t.Fatalf("PathAlternatives after recovery: %v", err)
	}
	if len(restored) < 2 {
		t.Fatalf("recovered route not re-discovered: %v", restored)
	}
}

// TestPathAlternativesCacheDisableAndInvalidate: the kill switch stops
// caching entirely and InvalidateAlternatives drops warm entries.
func TestPathAlternativesCacheDisableAndInvalidate(t *testing.T) {
	topo, ids := chainTopo(t)
	c, _ := NewController(topo)
	if _, err := c.PathAlternatives(ids["pm1"], ids["pm2"], 3, topology.Pool{}); err != nil {
		t.Fatalf("PathAlternatives: %v", err)
	}
	c.alts.invalidate()
	if _, err := c.PathAlternatives(ids["pm1"], ids["pm2"], 3, topology.Pool{}); err != nil {
		t.Fatalf("PathAlternatives: %v", err)
	}
	hits, misses := c.AlternativesCacheStats()
	if hits != 0 || misses != 2 {
		t.Fatalf("stats after invalidate = %d/%d, want 0 hits, 2 misses", hits, misses)
	}
	c.SetAlternativesCache(false)
	yenBefore := c.YenRuns()
	for i := 0; i < 3; i++ {
		if _, err := c.PathAlternatives(ids["pm1"], ids["pm2"], 3, topology.Pool{}); err != nil {
			t.Fatalf("PathAlternatives (disabled): %v", err)
		}
	}
	if got := c.YenRuns() - yenBefore; got != 3 {
		t.Fatalf("disabled cache still memoized: %d Yen runs, want 3", got)
	}
	if h, m := c.AlternativesCacheStats(); h != 0 || m != 2 {
		t.Fatalf("disabled cache moved counters: %d/%d", h, m)
	}
}
