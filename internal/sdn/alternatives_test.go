package sdn

import (
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

// multiRouteTopo builds pm1/pm2 connected by three disjoint ToR-OPS-ToR
// routes of strictly increasing latency, so the alternative order is
// fully determined:
//
//	pm1 —a0— o0 —b0— pm2   (latency 1 per link)
//	pm1 —a1— o1 —b1— pm2   (latency 2 per link)
//	pm1 —a2— o2 —b2— pm2   (latency 3 per link)
func multiRouteTopo(t *testing.T) (*topology.Topology, topology.NodeID, topology.NodeID, [3]topology.NodeID) {
	t.Helper()
	topo := topology.New()
	big := topology.Resources{CPUCores: 32, MemoryGB: 64, StorageGB: 512}
	pm1 := topo.AddPM(0, big)
	pm2 := topo.AddPM(1, big)
	var opss [3]topology.NodeID
	for r := 0; r < 3; r++ {
		a := topo.AddToR(0)
		b := topo.AddToR(1)
		opss[r] = topo.AddOPS(false, topology.Resources{})
		lat := float64(1 + r)
		for _, l := range [][3]any{
			{pm1, a, topology.LinkElectronic},
			{a, opss[r], topology.LinkBoundary},
			{opss[r], b, topology.LinkBoundary},
			{b, pm2, topology.LinkElectronic},
		} {
			if _, err := topo.AddLink(l[0].(topology.NodeID), l[1].(topology.NodeID), l[2].(topology.LinkKind), 10, lat); err != nil {
				t.Fatalf("AddLink: %v", err)
			}
		}
	}
	return topo, pm1, pm2, opss
}

// TestPathAlternativesOrderAndDisjointness: the alternatives must come
// back loopless, in nondecreasing latency order, with the first equal
// to the shortest path — and on this topology the three routes are
// internally node-disjoint.
func TestPathAlternativesOrderAndDisjointness(t *testing.T) {
	topo, pm1, pm2, opss := multiRouteTopo(t)
	c, err := NewController(topo)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	alts, err := c.PathAlternatives(pm1, pm2, 3, topology.Pool{})
	if err != nil {
		t.Fatalf("PathAlternatives: %v", err)
	}
	if len(alts) != 3 {
		t.Fatalf("got %d alternatives, want 3", len(alts))
	}
	shortest, err := c.ComputePath(pm1, pm2, nil)
	if err != nil {
		t.Fatalf("ComputePath: %v", err)
	}
	if len(alts[0]) != len(shortest) {
		t.Fatalf("first alternative %v != shortest path %v", alts[0], shortest)
	}
	for i := range shortest {
		if alts[0][i] != shortest[i] {
			t.Fatalf("first alternative %v != shortest path %v", alts[0], shortest)
		}
	}
	// Route order follows latency: o0, o1, o2.
	for i, alt := range alts {
		found := false
		for _, n := range alt {
			if n == opss[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("alternative %d = %v does not use route %d (OPS %d)", i, alt, i, opss[i])
		}
		// Loopless: no node repeats.
		seen := make(map[topology.NodeID]bool)
		for _, n := range alt {
			if seen[n] {
				t.Fatalf("alternative %d = %v revisits node %d", i, alt, n)
			}
			seen[n] = true
		}
		// Endpoints fixed.
		if alt[0] != pm1 || alt[len(alt)-1] != pm2 {
			t.Fatalf("alternative %d = %v has wrong endpoints", i, alt)
		}
	}
	// Internal (transit) disjointness across the three routes.
	internal := make(map[topology.NodeID]int)
	for i, alt := range alts {
		for _, n := range alt[1 : len(alt)-1] {
			if prev, dup := internal[n]; dup {
				t.Fatalf("alternatives %d and %d share transit node %d", prev, i, n)
			}
			internal[n] = i
		}
	}
}

// TestPathAlternativesDeterministic: identical inputs must yield
// identical outputs — the standby planner's reproducibility depends on
// it.
func TestPathAlternativesDeterministic(t *testing.T) {
	topo, pm1, pm2, _ := multiRouteTopo(t)
	c, err := NewController(topo)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	first, err := c.PathAlternatives(pm1, pm2, 3, topology.Pool{})
	if err != nil {
		t.Fatalf("PathAlternatives: %v", err)
	}
	for trial := 0; trial < 5; trial++ {
		again, err := c.PathAlternatives(pm1, pm2, 3, topology.Pool{})
		if err != nil {
			t.Fatalf("PathAlternatives trial %d: %v", trial, err)
		}
		if len(again) != len(first) {
			t.Fatalf("trial %d: %d alternatives, want %d", trial, len(again), len(first))
		}
		for i := range first {
			if len(again[i]) != len(first[i]) {
				t.Fatalf("trial %d alternative %d: %v != %v", trial, i, again[i], first[i])
			}
			for j := range first[i] {
				if again[i][j] != first[i][j] {
					t.Fatalf("trial %d alternative %d: %v != %v", trial, i, again[i], first[i])
				}
			}
		}
	}
}

// TestPathAlternativesFewerThanK: asking for more alternatives than the
// topology has must return what exists, without error; k must be
// positive; an unreachable destination is an error.
func TestPathAlternativesFewerThanK(t *testing.T) {
	topo, pm1, pm2, _ := multiRouteTopo(t)
	c, err := NewController(topo)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	alts, err := c.PathAlternatives(pm1, pm2, 50, topology.Pool{})
	if err != nil {
		t.Fatalf("PathAlternatives(k=50): %v", err)
	}
	if len(alts) != 3 {
		t.Fatalf("k=50 returned %d alternatives, want the 3 that exist", len(alts))
	}
	if alts, err := c.PathAlternatives(pm1, pm2, 1, topology.Pool{}); err != nil || len(alts) != 1 {
		t.Fatalf("k=1: alts=%v err=%v", alts, err)
	}
	if _, err := c.PathAlternatives(pm1, pm2, 0, topology.Pool{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	// Strand pm2: all its ToR links die.
	for _, l := range topo.Links() {
		if l.From != pm2 && l.To != pm2 {
			continue
		}
		if err := topo.SetDown(topology.NewFailures(nil, []topology.LinkID{l.ID}), true); err != nil {
			t.Fatalf("SetDown: %v", err)
		}
	}
	if _, err := c.PathAlternatives(pm1, pm2, 3, topology.Pool{}); err == nil {
		t.Fatal("alternatives to a stranded node succeeded")
	}
}

// TestPathAlternativesRestrictOPS: the slice restriction must apply to
// alternatives exactly as it does to ComputePath.
func TestPathAlternativesRestrictOPS(t *testing.T) {
	topo, pm1, pm2, opss := multiRouteTopo(t)
	c, err := NewController(topo)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	restrict := topology.NodeSet{opss[1]}
	alts, err := c.PathAlternatives(pm1, pm2, 3, topology.NewPool(restrict))
	if err != nil {
		t.Fatalf("PathAlternatives restricted: %v", err)
	}
	if len(alts) != 1 {
		t.Fatalf("restricted alternatives = %d, want 1 (only route 1 allowed)", len(alts))
	}
	for _, n := range alts[0] {
		if (n == opss[0] || n == opss[2]) && topo.Node(n).Kind == topology.KindOPS {
			t.Fatalf("restricted alternative %v crosses a foreign OPS", alts[0])
		}
	}
}

// TestPathComputationCounter: both ComputePath and PathAlternatives
// must tick the counting hook the resilience contract asserts against.
func TestPathComputationCounter(t *testing.T) {
	topo, pm1, pm2, _ := multiRouteTopo(t)
	c, err := NewController(topo)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	if got := c.PathComputations(); got != 0 {
		t.Fatalf("fresh controller counter = %d", got)
	}
	if _, err := c.ComputePath(pm1, pm2, nil); err != nil {
		t.Fatalf("ComputePath: %v", err)
	}
	if got := c.PathComputations(); got != 1 {
		t.Fatalf("counter after ComputePath = %d, want 1", got)
	}
	if _, err := c.PathAlternatives(pm1, pm2, 3, topology.Pool{}); err != nil {
		t.Fatalf("PathAlternatives: %v", err)
	}
	if got := c.PathComputations(); got != 2 {
		t.Fatalf("counter after PathAlternatives = %d, want 2", got)
	}
}
