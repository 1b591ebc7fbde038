package topology

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/alvc/alvc/internal/graph"
)

// ShortestPath returns the minimum-weight path between two nodes over
// the snapshot, honoring an OPS restriction set (nil = unrestricted) and
// the liveness overlay.
func (s *Snapshot) ShortestPath(src, dst NodeID, restrict NodeSet) ([]NodeID, float64, error) {
	r := s.Restrict(restrict)
	defer s.Release(r)
	path, w, err := s.AppendShortestPathIn(nil, src, dst, r)
	if err != nil {
		return nil, 0, err
	}
	return path, w, nil
}

// snapTestTopo builds a small two-rack topology with a 4-OPS core ring
// so there are meaningful alternate paths and restrictable OPSs.

func snapTestTopo(t *testing.T) (*Topology, []NodeID, []NodeID) {
	t.Helper()
	topo := New()
	var tors, opss []NodeID
	for r := 0; r < 2; r++ {
		tors = append(tors, topo.AddToR(r))
	}
	for i := 0; i < 4; i++ {
		opss = append(opss, topo.AddOPS(false, Resources{}))
	}
	for i := range opss {
		if _, err := topo.AddLink(opss[i], opss[(i+1)%len(opss)], LinkOptical, 100, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, tor := range tors {
		for _, ops := range opss[:2] {
			if _, err := topo.AddLink(tor, ops, LinkBoundary, 40, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := topo.AddLink(tors[0], opss[2], LinkBoundary, 40, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.AddLink(tors[1], opss[3], LinkBoundary, 40, 2); err != nil {
		t.Fatal(err)
	}
	return topo, tors, opss
}

// TestSnapshotCacheHitAndInvalidation asserts the core cache contract:
// repeated fetches on an unchanged topology build nothing; every
// mutation class bumps the generation and the next fetch rebuilds.
func TestSnapshotCacheHitAndInvalidation(t *testing.T) {
	topo, tors, opss := snapTestTopo(t)
	pms := []NodeID{topo.AddPM(0, Resources{}), topo.AddPM(1, Resources{})}
	opts := GraphOptions{}

	s1 := topo.RoutingSnapshot(opts)
	builds := topo.GraphBuilds()
	for i := 0; i < 10; i++ {
		if s := topo.RoutingSnapshot(opts); s != s1 {
			t.Fatal("unchanged topology must return the cached snapshot")
		}
	}
	if got := topo.GraphBuilds(); got != builds {
		t.Fatalf("warm fetches rebuilt the graph: %d -> %d builds", builds, got)
	}

	// There is one routing graph: the options key no second entry.
	if topo.RoutingSnapshot(GraphOptions{IncludeVMs: true}) != s1 {
		t.Fatal("GraphOptions must not key a second cache entry")
	}

	// Liveness transitions patch the cached snapshot in place, and VM
	// churn does not touch it (a VM is no vertex): the total generation
	// bumps (derived caches must refresh), but the structural
	// generation, the cache entry, and the build counter all hold still.
	var vm NodeID
	liveness := []struct {
		name string
		fn   func() error
	}{
		{"link down", func() error { return topo.SetDown(NewFailures(nil, []LinkID{1}), true) }},
		{"link up", func() error { return topo.SetDown(NewFailures(nil, []LinkID{1}), false) }},
		{"node down", func() error { return topo.SetDown(NewFailures([]NodeID{opss[3]}, nil), true) }},
		{"node up", func() error { return topo.SetDown(NewFailures([]NodeID{opss[3]}, nil), false) }},
		{"nodes down", func() error { return topo.SetDown(NewFailures([]NodeID{opss[2], opss[3]}, nil), true) }},
		{"nodes up", func() error { return topo.SetDown(NewFailures([]NodeID{opss[2], opss[3]}, nil), false) }},
		{"links down", func() error { return topo.SetDown(NewFailures(nil, []LinkID{1, 2}), true) }},
		{"links up", func() error { return topo.SetDown(NewFailures(nil, []LinkID{1, 2}), false) }},
		{"node and link down", func() error { return topo.SetDown(NewFailures([]NodeID{opss[3]}, []LinkID{1}), true) }},
		{"node and link up", func() error { return topo.SetDown(NewFailures([]NodeID{opss[3]}, []LinkID{1}), false) }},
		{"AddVM", func() (err error) { vm, err = topo.AddVM(pms[0], "web"); return err }},
		{"MigrateVM", func() error { return topo.MigrateVM(vm, pms[1]) }},
		{"RemoveVM", func() error { return topo.RemoveVM(vm) }},
	}
	for _, m := range liveness {
		gen := topo.Generation()
		sgen := topo.StructuralGeneration()
		prev := topo.RoutingSnapshot(opts)
		builds := topo.GraphBuilds()
		if err := m.fn(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if topo.Generation() == gen {
			t.Fatalf("%s did not bump the total generation", m.name)
		}
		if topo.StructuralGeneration() != sgen {
			t.Fatalf("%s bumped the structural generation", m.name)
		}
		if s := topo.RoutingSnapshot(opts); s != prev {
			t.Fatalf("%s invalidated the snapshot cache (liveness must patch in place)", m.name)
		}
		if got := topo.GraphBuilds(); got != builds {
			t.Fatalf("%s rebuilt the graph: %d -> %d builds", m.name, builds, got)
		}
	}

	// Structural mutations still invalidate: the next fetch rebuilds.
	structural := []struct {
		name string
		fn   func() error
	}{
		{"SetLinkLatency", func() error { return topo.SetLinkLatency(2, 7.5) }},
		{"SetLinkSRLG", func() error { return topo.SetLinkSRLG(2, 11) }},
		{"AddToR", func() error { topo.AddToR(2); return nil }},
	}
	for _, m := range structural {
		gen := topo.Generation()
		sgen := topo.StructuralGeneration()
		prev := topo.RoutingSnapshot(opts)
		if err := m.fn(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if topo.Generation() == gen {
			t.Fatalf("%s did not bump the total generation", m.name)
		}
		if topo.StructuralGeneration() == sgen {
			t.Fatalf("%s did not bump the structural generation", m.name)
		}
		if s := topo.RoutingSnapshot(opts); s == prev {
			t.Fatalf("%s did not invalidate the snapshot cache", m.name)
		}
	}
	_ = tors
}

// TestBatchLivenessMutators pins the batch-mutator contract: one
// generation bump for the whole set, atomic reject on any unknown ID,
// and per-element down flags identical to the single-mutator path.
func TestBatchLivenessMutators(t *testing.T) {
	topo, tors, opss := snapTestTopo(t)

	gen := topo.Generation()
	if err := topo.SetDown(NewFailures([]NodeID{opss[0], opss[1], tors[0]}, nil), true); err != nil {
		t.Fatal(err)
	}
	if got := topo.Generation() - gen; got != 1 {
		t.Fatalf("batch node-down bumped the generation %d times, want 1", got)
	}
	for _, id := range []NodeID{opss[0], opss[1], tors[0]} {
		if !topo.Node(id).Down {
			t.Fatalf("node %d not down after batch", id)
		}
	}
	if err := topo.SetDown(NewFailures([]NodeID{opss[0], opss[1], tors[0]}, nil), false); err != nil {
		t.Fatal(err)
	}

	gen = topo.Generation()
	if err := topo.SetDown(NewFailures(nil, []LinkID{1, 2, 3}), true); err != nil {
		t.Fatal(err)
	}
	if got := topo.Generation() - gen; got != 1 {
		t.Fatalf("batch link-down bumped the generation %d times, want 1", got)
	}
	for _, id := range []LinkID{1, 2, 3} {
		if !topo.Link(id).Down {
			t.Fatalf("link %d not down after batch", id)
		}
	}

	// Atomic reject: an unknown ID anywhere in the set mutates nothing.
	gen = topo.Generation()
	if err := topo.SetDown(NewFailures([]NodeID{opss[2], 9999}, nil), true); err == nil {
		t.Fatal("unknown node in batch must fail")
	}
	if topo.Node(opss[2]).Down {
		t.Fatal("rejected batch mutated a node")
	}
	if err := topo.SetDown(NewFailures(nil, []LinkID{4, 9999}), true); err == nil {
		t.Fatal("unknown link in batch must fail")
	}
	if topo.Link(4).Down {
		t.Fatal("rejected batch mutated a link")
	}
	if topo.Generation() != gen {
		t.Fatal("rejected batch bumped the generation")
	}

	// A mixed set is rejected as a whole too: the valid node stays up.
	if err := topo.SetDown(NewFailures([]NodeID{opss[2]}, []LinkID{9999}), true); err == nil {
		t.Fatal("unknown link in a mixed batch must fail")
	}
	if topo.Node(opss[2]).Down {
		t.Fatal("rejected mixed batch mutated a node")
	}

	// Empty sets are no-ops.
	if err := topo.SetDown(NewFailures(nil, nil), true); err != nil {
		t.Fatal(err)
	}
	if err := topo.SetDown(NewFailures([]NodeID{}, []LinkID{}), false); err != nil {
		t.Fatal(err)
	}
	if topo.Generation() != gen {
		t.Fatal("empty batch bumped the generation")
	}

	// A node and a link are one transition: one bump, one patch.
	topo.RoutingSnapshot(GraphOptions{})
	gen, patches := topo.Generation(), topo.LivenessPatches()
	if err := topo.SetDown(NewFailures([]NodeID{opss[2]}, []LinkID{4}), true); err != nil {
		t.Fatal(err)
	}
	if g, p := topo.Generation()-gen, topo.LivenessPatches()-patches; g != 1 || p != 1 {
		t.Fatalf("a node and a link bumped the generation %d times and patched %d times, want 1 and 1", g, p)
	}
	if !topo.Node(opss[2]).Down || !topo.Link(4).Down {
		t.Fatal("mixed batch left a resource up")
	}
}

// TestSnapshotReflectsLinkFailure is the ISSUE's invalidation check at
// the search level: fail a link, and the very next shortest path must
// route around it; recover it, and the next path may use it again.
func TestSnapshotReflectsLinkFailure(t *testing.T) {
	topo, tors, _ := snapTestTopo(t)
	src, dst := tors[0], tors[1]

	before, _, err := topo.RoutingSnapshot(GraphOptions{}).ShortestPath(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the first link of the current best path.
	l := topo.LinkBetween(before[0], before[1])
	if l == nil {
		t.Fatalf("no link between %d and %d", before[0], before[1])
	}
	if err := topo.SetDown(NewFailures(nil, []LinkID{l.ID}), true); err != nil {
		t.Fatal(err)
	}
	after, _, err := topo.RoutingSnapshot(GraphOptions{}).ShortestPath(src, dst, nil)
	if err != nil {
		t.Fatalf("no path after single link failure: %v", err)
	}
	for i := 0; i+1 < len(after); i++ {
		if (after[i] == l.From && after[i+1] == l.To) || (after[i] == l.To && after[i+1] == l.From) {
			t.Fatalf("path %v still crosses failed link %d", after, l.ID)
		}
	}
	if err := topo.SetDown(NewFailures(nil, []LinkID{l.ID}), false); err != nil {
		t.Fatal(err)
	}
	recovered, _, err := topo.RoutingSnapshot(GraphOptions{}).ShortestPath(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != len(before) {
		t.Fatalf("recovered path %v; want something as short as %v", recovered, before)
	}
}

// TestSnapshotFilteredEqualsColdRebuild is the property-style test:
// for random OPS restriction sets, a cached snapshot searched under a
// Restriction must produce exactly what a cold rebuild restricted at
// build time produces — paths, weights and reachability alike.
func TestSnapshotFilteredEqualsColdRebuild(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Seed = 7
	topo, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opss := topo.NodeIDs(KindOPS)
	tors := topo.NodeIDs(KindToR)
	rng := rand.New(rand.NewSource(42))
	snap := topo.RoutingSnapshot(GraphOptions{IncludeVMs: true})
	builds := topo.GraphBuilds()
	for trial := 0; trial < 60; trial++ {
		restrict := NodeSet{}
		for _, ops := range opss {
			if rng.Float64() < 0.6 {
				restrict = append(restrict, ops)
			}
		}
		src := tors[rng.Intn(len(tors))]
		dst := tors[rng.Intn(len(tors))]

		cold := routingGraph(topo, true, restrict)
		wantVP, wantW, wantErr := cold.ShortestPath(graph.VertexID(src), graph.VertexID(dst))
		gotPath, gotW, gotErr := snap.ShortestPath(src, dst, restrict)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d %d->%d: error mismatch cold=%v cached=%v", trial, src, dst, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if wantW != gotW || len(wantVP) != len(gotPath) {
			t.Fatalf("trial %d %d->%d: cold %v (%g) vs cached %v (%g)", trial, src, dst, wantVP, wantW, gotPath, gotW)
		}
		for i := range wantVP {
			if NodeID(wantVP[i]) != gotPath[i] {
				t.Fatalf("trial %d %d->%d: cold %v vs cached %v", trial, src, dst, wantVP, gotPath)
			}
		}
	}
	// The cold comparators above built map graphs per trial; the cached
	// side must not have rebuilt at all.
	if got := topo.GraphBuilds(); got != builds {
		t.Fatalf("cached side triggered rebuilds: %d builds, want %d", got, builds)
	}

	// Same property for Yen's k-shortest.
	for trial := 0; trial < 10; trial++ {
		restrict := NodeSet{}
		for _, ops := range opss {
			if rng.Float64() < 0.7 {
				restrict = append(restrict, ops)
			}
		}
		src := tors[rng.Intn(len(tors))]
		dst := tors[rng.Intn(len(tors))]
		if src == dst {
			continue
		}
		cold := routingGraph(topo, true, restrict)
		wantPaths, wantWs, wantErr := cold.KShortestPaths(graph.VertexID(src), graph.VertexID(dst), 4)
		gotPaths, gotWs, _, gotErr := snap.KShortestPaths(src, dst, 4, restrict)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("yen trial %d: error mismatch cold=%v cached=%v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if len(wantPaths) != len(gotPaths) {
			t.Fatalf("yen trial %d: %d vs %d paths", trial, len(wantPaths), len(gotPaths))
		}
		for i := range wantPaths {
			if wantWs[i] != gotWs[i] || len(wantPaths[i]) != len(gotPaths[i]) {
				t.Fatalf("yen trial %d path %d: cold %v (%g) vs cached %v (%g)",
					trial, i, wantPaths[i], wantWs[i], gotPaths[i], gotWs[i])
			}
			for j := range wantPaths[i] {
				if NodeID(wantPaths[i][j]) != gotPaths[i][j] {
					t.Fatalf("yen trial %d path %d: cold %v vs cached %v", trial, i, wantPaths[i], gotPaths[i])
				}
			}
		}
	}
}

// TestSnapshotRestrictedEndpointNoPath pins the behavior for a
// restricted-out endpoint: a build-time restriction drops the vertex
// ("unknown source"); the Restriction reports no path. Either way the
// search fails — assert the snapshot's contract explicitly.
func TestSnapshotRestrictedEndpointNoPath(t *testing.T) {
	topo, _, opss := snapTestTopo(t)
	snap := topo.RoutingSnapshot(GraphOptions{})
	restrict := NodeSet{opss[0]}
	if _, _, err := snap.ShortestPath(opss[3], opss[0], restrict); err == nil {
		t.Fatal("restricted-out source must not find a path")
	}
}

// TestAppendHostHopEqualsSearch: a VM↔host leg is answered without a
// search with exactly what the search returns — the one route, or its
// error when either end is down — and nothing else counts as one: not a
// VM to another PM, not a PM's only uplink.
func TestAppendHostHopEqualsSearch(t *testing.T) {
	topo, ids := smallTopo(t)
	lone := topo.AddPM(0, Resources{})
	if _, err := topo.AddLink(lone, ids["tor1"], LinkElectronic, 10, 1); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	opts := GraphOptions{IncludeVMs: true}
	check := func(when string) {
		t.Helper()
		snap := topo.RoutingSnapshot(opts)
		for _, leg := range [][2]NodeID{
			{ids["vm1"], ids["pm1"]}, {ids["pm1"], ids["vm2"]}, {ids["vm3"], ids["pm2"]},
		} {
			got, ok, err := snap.AppendHostHop([]NodeID{9}, leg[0], leg[1])
			want, _, wantErr := snap.AppendPathAvoiding([]NodeID{9}, leg[0], leg[1], nil, Avoid{})
			if !ok || (err == nil) != (wantErr == nil) || (err == nil && !slices.Equal(got, want)) {
				t.Fatalf("%s: leg %v: host hop %v, %v, %v; search %v, %v", when, leg, got, ok, err, want, wantErr)
			}
			if err != nil && !slices.Equal(got, []NodeID{9}) {
				t.Fatalf("%s: a failed hop appended %v", when, got)
			}
		}
		for _, leg := range [][2]NodeID{
			{ids["vm1"], ids["pm2"]}, {ids["vm1"], ids["vm2"]}, {ids["pm1"], ids["tor1"]}, {lone, ids["tor1"]}, {ids["tor1"], lone},
		} {
			if got, ok, err := snap.AppendHostHop(nil, leg[0], leg[1]); ok || err != nil || got != nil {
				t.Fatalf("%s: leg %v answered as a host hop: %v, %v", when, leg, got, err)
			}
		}
	}
	check("all up")
	if err := topo.SetDown(NewFailures([]NodeID{ids["pm1"]}, nil), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	check("pm1 down")
	if err := topo.SetDown(NewFailures([]NodeID{ids["pm1"]}, nil), false); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	if err := topo.SetDown(NewFailures([]NodeID{ids["vm3"]}, nil), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	check("vm3 down")
}

// TestLiveDigestNamesTheFabricState: the snapshot's digest moves with
// every liveness batch and returns when the fabric does — a link flap,
// a node down and up — and a search reports the one it ran under.
func TestLiveDigestNamesTheFabricState(t *testing.T) {
	topo, ids := smallTopo(t)
	snap := topo.RoutingSnapshot(GraphOptions{IncludeVMs: true})
	if snap.LiveDigest() != 0 {
		t.Fatalf("all-up digest %#x, want 0", snap.LiveDigest())
	}
	core := topo.LinkBetween(ids["ops1"], ids["ops2"]).ID
	if err := topo.SetDown(NewFailures(nil, []LinkID{core}), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	cut := snap.LiveDigest()
	if cut == 0 {
		t.Fatal("a link down left the digest at 0")
	}
	if _, ran, err := snap.AppendPathAvoiding(nil, ids["pm1"], ids["pm2"], nil, Avoid{}); err != nil || ran != cut {
		t.Fatalf("search ran under %#x, %v; want %#x", ran, err, cut)
	}
	if err := topo.SetDown(NewFailures([]NodeID{ids["pm2"]}, nil), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	if snap.LiveDigest() == cut {
		t.Fatal("a node down left the digest unchanged")
	}
	if err := topo.SetDown(NewFailures([]NodeID{ids["pm2"]}, nil), false); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	if snap.LiveDigest() != cut {
		t.Fatalf("node back up: %#x, want %#x", snap.LiveDigest(), cut)
	}
	if err := topo.SetDown(NewFailures(nil, []LinkID{core}), false); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	if snap.LiveDigest() != 0 {
		t.Fatalf("all recovered: %#x, want 0", snap.LiveDigest())
	}
	if topo.RoutingSnapshot(GraphOptions{IncludeVMs: true}) != snap {
		t.Fatal("liveness moved the snapshot")
	}
}
