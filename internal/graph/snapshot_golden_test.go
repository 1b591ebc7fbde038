package graph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/alvc/alvc/internal/graph"
	"github.com/alvc/alvc/internal/topology"
)

// mapFill is the routing snapshot's graph as it was built before the
// snapshot read the topology tables directly: a map graph of every
// non-VM node and every link between two of them weighing its latency
// and tagged with its ID — frozen by Graph.Frozen.
func mapFill(topo *topology.Topology) *graph.Frozen {
	g := graph.New(false)
	for _, n := range topo.Nodes() {
		if n.Kind != topology.KindVM {
			g.AddVertex(graph.VertexID(n.ID))
		}
	}
	for _, l := range topo.Links() {
		nf, nt := topo.Node(l.From), topo.Node(l.To)
		if nf == nil || nt == nil || nf.Kind == topology.KindVM || nt.Kind == topology.KindVM {
			continue
		}
		_ = g.AddEdgeTagged(graph.VertexID(l.From), graph.VertexID(l.To), l.LatencyMicros, int64(l.ID))
	}
	return g.Frozen()
}

// liveDigest is the digest a liveness overlay over f must hold for the
// topology's state: every vertex that is down, and both arcs of every
// down link (graph.LiveMask's element encoding).
func liveDigest(topo *topology.Topology, f *graph.Frozen) uint64 {
	var d uint64
	for i, id := range f.Vertices() {
		if topo.Node(topology.NodeID(id)).Down {
			d ^= graph.Mix64(uint64(i) << 1)
		}
	}
	for pos, tag := range f.ArcTags() {
		if l := topo.Link(topology.LinkID(tag)); tag != 0 && l.Down {
			d ^= graph.Mix64(uint64(pos)<<1 | 1)
		}
	}
	return d
}

// goldenTopology is a generated fabric reshaped the ways the table walk
// must get right: parallel links of equal and of different latency,
// links touching VMs (one of them to a VM later removed), removed and
// migrated VMs that leave ID gaps, and down PMs, OPSs, ToRs, VMs and
// links.
func goldenTopology(t *testing.T, seed int64) *topology.Topology {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := topology.DefaultGenConfig()
	cfg.Seed = seed
	cfg.Racks = 2 + rng.Intn(4)
	cfg.OPSCount = 3 + rng.Intn(8)
	cfg.ToRUplinks = 1 + rng.Intn(cfg.OPSCount)
	cfg.OPSChords = rng.Intn(3)
	cfg.DualHomeFrac = rng.Float64()
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("seed %d: Generate: %v", seed, err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	link := func(a, b topology.NodeID, kind topology.LinkKind, latency float64) {
		_, err := topo.AddLink(a, b, kind, 10, latency)
		must(err)
	}
	pick := func(ids []topology.NodeID) topology.NodeID { return ids[rng.Intn(len(ids))] }
	tors, opss := topo.NodeIDs(topology.KindToR), topo.NodeIDs(topology.KindOPS)
	pms, vms := topo.NodeIDs(topology.KindPhysicalMachine), topo.NodeIDs(topology.KindVM)
	for i := 0; i < 4; i++ {
		tor, ops := pick(tors), pick(opss)
		link(tor, ops, topology.LinkBoundary, 2)
		link(tor, ops, topology.LinkBoundary, float64(1+rng.Intn(3)))
	}
	if len(opss) > 1 {
		link(opss[0], opss[1], topology.LinkOptical, 1)
		link(opss[1], opss[0], topology.LinkOptical, 1)
	}
	link(vms[0], pick(pms), topology.LinkElectronic, 1)
	link(pick(pms), vms[1], topology.LinkElectronic, 1)
	link(vms[1], vms[2], topology.LinkElectronic, 1)
	must(topo.RemoveVM(vms[1]))
	for _, vm := range vms[3:] {
		switch rng.Intn(6) {
		case 0:
			must(topo.RemoveVM(vm))
		case 1:
			must(topo.MigrateVM(vm, pick(pms)))
		case 2:
			must(topo.SetDown(topology.NewFailures([]topology.NodeID{vm}, nil), true))
		}
	}
	must(topo.SetDown(topology.NewFailures([]topology.NodeID{pick(pms), pick(opss), pick(tors)}, nil), true))
	links := topo.Links()
	for i := 0; i < 3; i++ {
		must(topo.SetDown(topology.NewFailures(nil, []topology.LinkID{links[rng.Intn(len(links))].ID}), true))
	}
	return topo
}

// TestSnapshotCSREqualsMapFill: on seeded topologies, a cold routing
// snapshot built from the tables holds exactly the CSR — ids, offsets,
// targets, weights and tags — of the map graph the snapshot used to
// fill and freeze, and its liveness overlay holds the topology's down
// state, as built and after PMs go down and come back.
func TestSnapshotCSREqualsMapFill(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		topo := goldenTopology(t, seed)
		name := fmt.Sprintf("seed %d", seed)
		snap := topo.RoutingSnapshot()
		got, want := snap.Graph(), mapFill(topo)
		gIDs, gOff, gTgt, gW, gTags := got.CSR()
		wIDs, wOff, wTgt, wW, wTags := want.CSR()
		for _, c := range []struct {
			what      string
			got, want any
		}{{"ids", gIDs, wIDs}, {"offsets", gOff, wOff}, {"targets", gTgt, wTgt}, {"weights", gW, wW}, {"tags", gTags, wTags}} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("%s: %s\n got %v\nwant %v", name, c.what, c.got, c.want)
			}
		}
		if got.EdgeCount() != want.EdgeCount() {
			t.Fatalf("%s: %d edges, map fill %d", name, got.EdgeCount(), want.EdgeCount())
		}
		if d, w := snap.LiveDigest(), liveDigest(topo, want); d != w {
			t.Fatalf("%s: LiveDigest %#x, topology's down state %#x", name, d, w)
		}
		// Liveness patches land on the cached snapshot in place.
		pms := topo.NodeIDs(topology.KindPhysicalMachine)
		for _, down := range []bool{true, false} {
			if err := topo.SetDown(topology.NewFailures(pms[:2], nil), down); err != nil {
				t.Fatal(err)
			}
			if d, w := snap.LiveDigest(), liveDigest(topo, snap.Graph()); d != w {
				t.Fatalf("%s, PMs down %v: LiveDigest %#x, topology's down state %#x", name, down, d, w)
			}
		}
	}
}
