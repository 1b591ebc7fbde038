package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// restrictTestTopo is a generated fabric with chords where racks meet
// only through the OPSs, one of them down.
func restrictTestTopo(t *testing.T) (*Topology, *Snapshot) {
	t.Helper()
	cfg := DefaultGenConfig()
	cfg.Seed = 20
	cfg.OPSCount, cfg.ToRUplinks, cfg.OPSChords = 12, 3, 2
	cfg.DualHomeFrac = 0
	topo, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetDown(NewFailures([]NodeID{topo.NodeIDs(KindOPS)[1]}, nil), true); err != nil {
		t.Fatal(err)
	}
	return topo, topo.RoutingSnapshot(GraphOptions{IncludeVMs: true})
}

// searchBoth routes src→dst under restrict by both restricted kernels
// and by Yen's first path, which lays the set out on its own.
func searchBoth(snap *Snapshot, src, dst NodeID, restrict NodeSet) (in, avoiding, filtered []NodeID) {
	r := snap.Restrict(restrict)
	defer snap.Release(r)
	in, _, _ = snap.AppendShortestPathIn(nil, src, dst, r)
	avoiding, _, _ = snap.AppendPathAvoiding(nil, src, dst, r, Avoid{})
	if paths, _, _, err := snap.KShortestPaths(src, dst, 1, restrict); err == nil {
		filtered = paths[0]
	}
	return in, avoiding, filtered
}

// TestRestrictReleaseRestrict: the snapshot's pooled Restriction, handed
// back and laid out again for a different set — wide, then narrow, then
// empty — routes as Yen's own layout of the set does: nothing of the
// set before survives in it.
func TestRestrictReleaseRestrict(t *testing.T) {
	topo, snap := restrictTestTopo(t)
	opss, pms := topo.NodeIDs(KindOPS), topo.NodeIDs(KindPhysicalMachine)
	rng := rand.New(rand.NewSource(3))
	found := 0
	for trial := 0; trial < 300; trial++ {
		restrict := NodeSet{}
		for _, ops := range opss {
			if rng.Float64() < []float64{0.9, 0.15, 0}[trial%3] {
				if rng.Intn(8) > 0 {
					restrict = append(restrict, ops)
				}
			}
		}
		src, dst := pms[rng.Intn(len(pms))], pms[rng.Intn(len(pms))]
		in, avoiding, filtered := searchBoth(snap, src, dst, restrict)
		if !reflect.DeepEqual(in, filtered) {
			t.Fatalf("trial %d %d->%d under %v: AppendShortestPathIn %v, Yen %v", trial, src, dst, restrict, in, filtered)
		}
		// With nothing to avoid the two-ended search may take another of
		// the equally short paths, but finds one exactly when there is one.
		if (avoiding == nil) != (filtered == nil) {
			t.Fatalf("trial %d %d->%d under %v: AppendPathAvoiding %v, Yen %v", trial, src, dst, restrict, avoiding, filtered)
		}
		for _, n := range avoiding {
			if topo.Node(n).Kind == KindOPS && !restrict.Has(n) {
				t.Fatalf("trial %d: avoiding path %v crosses OPS %d outside %v", trial, avoiding, n, restrict)
			}
		}
		if filtered != nil {
			found++
		}
	}
	if found < 60 || found > 240 {
		t.Fatalf("%d of 300 searches found a path: the sets do not exercise both outcomes", found)
	}
}

// TestRestrictConcurrent: concurrent provisions lay out and search their own
// restrictions over one snapshot at once, while link failures patch its
// overlay; every worker's paths stay inside its own slice. Run under
// -race.
func TestRestrictConcurrent(t *testing.T) {
	topo, snap := restrictTestTopo(t)
	opss, pms := topo.NodeIDs(KindOPS), topo.NodeIDs(KindPhysicalMachine)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				restrict := NewNodeSet(opss[(w*5+i)%len(opss)], opss[(w*5+i+7)%len(opss)])
				in, avoiding, _ := searchBoth(snap, pms[rng.Intn(len(pms))], pms[rng.Intn(len(pms))], restrict)
				for _, path := range [][]NodeID{in, avoiding} {
					for _, n := range path {
						if topo.Node(n).Kind == KindOPS && !restrict.Has(n) {
							errs <- fmt.Errorf("worker %d: path %v crosses OPS %d outside %v", w, path, n, restrict)
							return
						}
					}
				}
			}
		}(w)
	}
	link := topo.linkIDsOf(opss[0])[0]
	for i := 0; i < 50; i++ {
		if err := topo.SetDown(NewFailures(nil, []LinkID{link}), i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestHopResolutionAllocatesNothing: resolving a hop to its link reads
// the adjacency tables and nothing else — after a liveness flip as
// before it, a LinkBetween or AnyLinkBetween call allocates 0 times.
// AnyLinkBetween answers the failed link itself, LinkBetween follows
// liveness, and a structural change is seen at once: a new link between
// a pair that had none is found. Readers share the tables; run under
// -race. A search with VM ends resolves each VM to its host off the node
// table and allocates nothing either.
func TestHopResolutionAllocatesNothing(t *testing.T) {
	topo, tors, opss := snapTestTopo(t)
	l := topo.AnyLinkBetween(tors[0], opss[0])
	if l == nil || topo.AnyLinkBetween(tors[1], opss[2]) != nil {
		t.Fatalf("AnyLinkBetween: tor0-ops0 = %v, tor1-ops2 = %v; want a link and none", l, topo.AnyLinkBetween(tors[1], opss[2]))
	}
	for _, down := range []bool{true, false, true} {
		if err := topo.SetDown(NewFailures(nil, []LinkID{l.ID}), down); err != nil {
			t.Fatal(err)
		}
		var anyGot, liveGot *Link
		allocs := testing.AllocsPerRun(100, func() {
			anyGot = topo.AnyLinkBetween(tors[0], opss[0])
			liveGot = topo.LinkBetween(opss[0], tors[0])
		})
		if allocs != 0 {
			t.Fatalf("after SetDown(%v): a hop resolution allocates %.1f times, want 0", down, allocs)
		}
		if anyGot != l || anyGot.Down != down {
			t.Fatalf("after SetDown(%v): AnyLinkBetween = %+v, want link %d itself", down, anyGot, l.ID)
		}
		if (liveGot == nil) != down {
			t.Fatalf("after SetDown(%v): LinkBetween = %v does not follow liveness", down, liveGot)
		}
	}
	added, err := topo.AddLink(tors[1], opss[2], LinkBoundary, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.AnyLinkBetween(opss[2], tors[1]); got == nil || got.ID != added {
		t.Fatalf("after AddLink: AnyLinkBetween = %v, want the new link %d", got, added)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if topo.AnyLinkBetween(tors[i%2], opss[i%4]) == nil && i%4 < 2 {
					t.Errorf("AnyLinkBetween(tor %d, ops %d) = nil", i%2, i%4)
				}
			}
		}()
	}
	wg.Wait()

	// VM ends: the route is its hosts' with each VM one 0.1 µs hop beyond.
	pms := []NodeID{topo.AddPM(0, Resources{}), topo.AddPM(1, Resources{})}
	var vms []NodeID
	for i, pm := range pms {
		if _, err := topo.AddLink(pm, tors[i], LinkElectronic, 10, 1); err != nil {
			t.Fatal(err)
		}
		vm, err := topo.AddVM(pm, "web")
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	snap := topo.RoutingSnapshot()
	hosts, hostsW, err := snap.AppendShortestPathIn(nil, pms[0], pms[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]NodeID{vms[0]}, hosts...), vms[1])
	buf, avoidBuf := make([]NodeID, 0, 16), make([]NodeID, 0, 16)
	var route, avoiding []NodeID
	var w float64
	var searchErr, avoidErr error
	allocs := testing.AllocsPerRun(100, func() {
		route, w, searchErr = snap.AppendShortestPathIn(buf, vms[0], vms[1], nil)
		avoiding, _, avoidErr = snap.AppendPathAvoiding(avoidBuf, vms[0], vms[1], nil, Avoid{Nodes: opss[:1], Spread: opss[2]})
	})
	if searchErr != nil || avoidErr != nil {
		t.Fatalf("VM to VM: %v, %v", searchErr, avoidErr)
	}
	if !slices.Equal(route, want) || w != hostsW+0.2 {
		t.Fatalf("VM to VM: %v (%g), want %v (%g)", route, w, want, hostsW+0.2)
	}
	if avoiding[0] != vms[0] || avoiding[len(avoiding)-1] != vms[1] {
		t.Fatalf("VM to VM avoiding: %v does not run between the VMs", avoiding)
	}
	if !raceEnabled && allocs != 0 {
		t.Fatalf("a search with VM ends allocates %.1f times, want 0", allocs)
	}
}

// TestNilNodeSetIsUnrestricted: a nil set restricts nothing and an empty
// one admits nothing, for a search and for a pool's digest alike, and a
// set built from IDs is ascending, duplicate-free and never nil.
func TestNilNodeSetIsUnrestricted(t *testing.T) {
	topo, snap := restrictTestTopo(t)
	opss, pms := topo.NodeIDs(KindOPS), topo.NodeIDs(KindPhysicalMachine)
	if set := NewNodeSet(); set == nil || len(set) != 0 {
		t.Fatalf("NewNodeSet() = %#v, want an empty non-nil set", set)
	}
	set := NewNodeSet(opss[5], opss[2], opss[5])
	if !slices.Equal(set, NodeSet{opss[2], opss[5]}) || !set.Has(opss[5]) || set.Has(opss[3]) {
		t.Fatalf("NewNodeSet = %v, want %v", set, []NodeID{opss[2], opss[5]})
	}
	nilPool, empty, some := NewPool(nil), NewPool(NodeSet{}), NewPool(set)
	if nilPool.Digest() != 0 || empty.Digest() == 0 || empty.Digest() == some.Digest() {
		t.Fatalf("digests nil %#x, empty %#x, {%v} %#x: want 0 and two others apart", nilPool.Digest(), empty.Digest(), set, some.Digest())
	}
	if r := snap.Restrict(nil); r != nil {
		t.Fatal("a nil set lays out a restriction")
	}
	src, dst := pms[0], pms[len(pms)-1]
	if in, _, _ := searchBoth(snap, src, dst, nil); in == nil {
		t.Fatalf("no route %d->%d unrestricted", src, dst)
	}
	if in, avoiding, _ := searchBoth(snap, src, dst, NodeSet{}); in != nil || avoiding != nil {
		t.Fatalf("routes %v and %v cross an empty OPS set", in, avoiding)
	}
}
