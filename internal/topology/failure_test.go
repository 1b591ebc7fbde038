package topology

import (
	"slices"
	"testing"
)

// TestNewFailures: a set is ascending and free of duplicates whatever
// order its lists came in; an ascending list is kept, not copied; any
// other is copied, so the caller's stays as it was; and the queries
// answer for exactly the set's members.
func TestNewFailures(t *testing.T) {
	sorted := []NodeID{2, 5, 9}
	unsorted := []LinkID{7, 3, 7, 1}
	f := NewFailures(sorted, unsorted)
	if !slices.Equal(f.Nodes(), []NodeID{2, 5, 9}) || !slices.Equal(f.Links(), []LinkID{1, 3, 7}) {
		t.Fatalf("set = %v %v, want [2 5 9] [1 3 7]", f.Nodes(), f.Links())
	}
	if &f.Nodes()[0] != &sorted[0] {
		t.Fatal("an ascending list was copied")
	}
	if !slices.Equal(unsorted, []LinkID{7, 3, 7, 1}) {
		t.Fatalf("the caller's unsorted list changed: %v", unsorted)
	}
	for _, id := range []NodeID{2, 5, 9} {
		if !f.HasNode(id) {
			t.Fatalf("HasNode(%d) = false", id)
		}
	}
	for _, id := range []NodeID{0, 1, 3, 10} {
		if f.HasNode(id) {
			t.Fatalf("HasNode(%d) = true", id)
		}
	}
	if f.Empty() || !NewFailures(nil, []LinkID{}).Empty() || NewFailures(nil, []LinkID{4}).Empty() {
		t.Fatal("Empty disagrees with the set")
	}
	if got := NewFailures([]NodeID{4, 4}, nil).Nodes(); !slices.Equal(got, []NodeID{4}) {
		t.Fatalf("a repeated ID gave %v, want [4]", got)
	}
}

// TestSetDownAllocatesNothing: marking a set down and up again walks
// the set's own lists; with no snapshot cached, there is nothing to
// patch and nothing to allocate.
func TestSetDownAllocatesNothing(t *testing.T) {
	topo, ids := smallTopo(t)
	var link LinkID
	for _, l := range linksOf(topo, ids["tor1"]) {
		link = l.ID
	}
	f := NewFailures([]NodeID{ids["ops1"], ids["pm1"]}, []LinkID{link})
	allocs := testing.AllocsPerRun(20, func() {
		if err := topo.SetDown(f, true); err != nil {
			t.Fatal(err)
		}
		if err := topo.SetDown(f, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SetDown allocates %.0f times a down-and-up, want 0", allocs)
	}
}

// TestLivenessPatchAllocatesNothing: with routing snapshots cached, a
// set going down and up is patched into each snapshot's live mask in
// place — a link set and a node set (a PM, whose VMs go with it) alike
// — and allocates nothing once the patch scratch has grown. The masks'
// digests return to their starting values.
func TestLivenessPatchAllocatesNothing(t *testing.T) {
	topo, ids := smallTopo(t)
	snaps := []*Snapshot{topo.RoutingSnapshot(GraphOptions{}), topo.RoutingSnapshot(GraphOptions{IncludeVMs: true})}
	start := []uint64{snaps[0].LiveDigest(), snaps[1].LiveDigest()}
	core := topo.LinkBetween(ids["ops1"], ids["ops2"]).ID
	uplink := topo.LinkBetween(ids["pm1"], ids["tor1"]).ID
	for name, f := range map[string]Failures{
		"links": NewFailures(nil, []LinkID{core, uplink}),
		"nodes": NewFailures([]NodeID{ids["ops1"], ids["pm1"]}, nil),
	} {
		patches := topo.LivenessPatches()
		allocs := testing.AllocsPerRun(20, func() {
			if err := topo.SetDown(f, true); err != nil {
				t.Fatal(err)
			}
			if err := topo.SetDown(f, false); err != nil {
				t.Fatal(err)
			}
		})
		if topo.LivenessPatches() == patches {
			t.Fatalf("%s: no liveness patch ran", name)
		}
		if allocs != 0 {
			t.Errorf("%s: a down-and-up with snapshots cached allocates %.0f times, want 0", name, allocs)
		}
		for i, s := range snaps {
			if s != topo.RoutingSnapshot(GraphOptions{IncludeVMs: i == 1}) {
				t.Fatalf("%s: the snapshot was rebuilt, not patched", name)
			}
			if s.LiveDigest() != start[i] {
				t.Errorf("%s: snapshot %d's digest is %#x after down and up, want %#x", name, i, s.LiveDigest(), start[i])
			}
		}
	}
}

func TestSetNodeDownHidesFromQueries(t *testing.T) {
	topo, ids := smallTopo(t)
	if err := topo.SetDown(NewFailures([]NodeID{ids["ops1"]}, nil), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	ops := topo.OPSsOfToR(ids["tor1"])
	for _, o := range ops {
		if o == ids["ops1"] {
			t.Fatal("down OPS still reported as uplink")
		}
	}
	// Routing graph excludes the down node.
	g := routingGraph(topo, false, nil)
	if g.HasVertex(gv(ids["ops1"])) {
		t.Fatal("down OPS present in routing graph")
	}
	// Recovery restores it.
	if err := topo.SetDown(NewFailures([]NodeID{ids["ops1"]}, nil), false); err != nil {
		t.Fatalf("SetDown(false): %v", err)
	}
	found := false
	for _, o := range topo.OPSsOfToR(ids["tor1"]) {
		if o == ids["ops1"] {
			found = true
		}
	}
	if !found {
		t.Fatal("recovered OPS still hidden")
	}
}

func TestSetNodeDownUnknown(t *testing.T) {
	topo, _ := smallTopo(t)
	if err := topo.SetDown(NewFailures([]NodeID{9999}, nil), true); err == nil {
		t.Fatal("unknown node accepted")
	}
	if err := topo.SetDown(NewFailures(nil, []LinkID{9999}), true); err == nil {
		t.Fatal("unknown link accepted")
	}
}

func TestSetLinkDownHidesEdge(t *testing.T) {
	topo, ids := smallTopo(t)
	var boundary LinkID
	for _, l := range linksOf(topo, ids["tor1"]) {
		if l.Kind == LinkBoundary && (l.From == ids["ops1"] || l.To == ids["ops1"]) {
			boundary = l.ID
		}
	}
	if err := topo.SetDown(NewFailures(nil, []LinkID{boundary}), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	for _, o := range topo.OPSsOfToR(ids["tor1"]) {
		if o == ids["ops1"] {
			t.Fatal("OPS reachable over down link")
		}
	}
	// LinkBetween skips down links.
	if l := topo.LinkBetween(ids["tor1"], ids["ops1"]); l != nil {
		t.Fatal("LinkBetween returned down link")
	}
	// Routing graph drops the edge but keeps both endpoints.
	g := routingGraph(topo, false, nil)
	if g.HasEdge(gv(ids["tor1"]), gv(ids["ops1"])) {
		t.Fatal("down link present in routing graph")
	}
}

func TestLinkBetween(t *testing.T) {
	topo, ids := smallTopo(t)
	l := topo.LinkBetween(ids["ops1"], ids["ops2"])
	if l == nil || l.Kind != LinkOptical {
		t.Fatalf("LinkBetween = %+v", l)
	}
	if topo.LinkBetween(ids["pm1"], ids["pm2"]) != nil {
		t.Fatal("nonexistent link reported")
	}
}

func TestDownVMExcludedFromRouting(t *testing.T) {
	topo, ids := smallTopo(t)
	if err := topo.SetDown(NewFailures([]NodeID{ids["vm1"]}, nil), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	g := routingGraph(topo, true, nil)
	if g.HasVertex(gv(ids["vm1"])) {
		t.Fatal("down VM present in routing graph")
	}
	if !g.HasVertex(gv(ids["vm3"])) {
		t.Fatal("live VM missing")
	}
}

func TestDownPMHidesItsVMs(t *testing.T) {
	topo, ids := smallTopo(t)
	if err := topo.SetDown(NewFailures([]NodeID{ids["pm1"]}, nil), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	g := routingGraph(topo, true, nil)
	if g.HasVertex(gv(ids["vm1"])) || g.HasVertex(gv(ids["vm2"])) {
		t.Fatal("VMs of down PM present in routing graph")
	}
}

// linksOf returns the links incident to id, ascending by ID.
func linksOf(t *Topology, id NodeID) []*Link {
	var out []*Link
	for _, lid := range t.linkIDsOf(id) {
		out = append(out, t.Link(lid))
	}
	return out
}
