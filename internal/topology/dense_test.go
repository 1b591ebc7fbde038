package topology_test

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/alvc/alvc/internal/graph"
	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/topology"
)

// shadow is the test's own model of a topology: what every step did,
// kept in plain maps and a flat link list so each answer the dense
// tables give can be recomputed by brute force.
type shadow struct {
	nodes map[topology.NodeID]*shadowNode
	links []shadowLink // in creation order, which is ascending ID
}

type shadowNode struct {
	kind topology.NodeKind
	host topology.NodeID
	down bool
}

type shadowLink struct {
	id       topology.LinkID
	from, to topology.NodeID
	down     bool
}

// linkBetween is the lowest-ID link touching both a and b, live ones
// only when live is set, found by a scan of every link.
func (s *shadow) linkBetween(a, b topology.NodeID, live bool) topology.LinkID {
	for _, l := range s.links {
		if (l.from == a || l.to == a) && (l.from == b || l.to == b) && !(live && l.down) {
			return l.id
		}
	}
	return 0
}

// virtualHop reports whether a–b is a VM and the PM hosting it.
func (s *shadow) virtualHop(a, b topology.NodeID) bool {
	na, nb := s.nodes[a], s.nodes[b]
	return na.kind == topology.KindVM && na.host == b || nb.kind == topology.KindVM && nb.host == a
}

// pathLinks is resilience.PathLinks by brute force: ok is false where
// that must fail.
func (s *shadow) pathLinks(path []topology.NodeID) (out []topology.LinkID, ok bool) {
	for i := 0; i+1 < len(path); i++ {
		if s.nodes[path[i]] == nil || s.nodes[path[i+1]] == nil {
			return nil, false
		}
		if s.virtualHop(path[i], path[i+1]) {
			continue
		}
		l := s.linkBetween(path[i], path[i+1], false)
		if l == 0 {
			return nil, false
		}
		out = append(out, l)
	}
	return out, true
}

// pathAlive is resilience.PathAlive by brute force.
func (s *shadow) pathAlive(path []topology.NodeID) bool {
	if len(path) == 0 {
		return false
	}
	for _, id := range path {
		if n := s.nodes[id]; n == nil || n.down {
			return false
		}
	}
	for i := 0; i+1 < len(path); i++ {
		if !s.virtualHop(path[i], path[i+1]) && s.linkBetween(path[i], path[i+1], true) == 0 {
			return false
		}
	}
	return true
}

// ofKind lists the model's node IDs of one kind, ascending.
func (s *shadow) ofKind(kind topology.NodeKind) []topology.NodeID {
	var out []topology.NodeID
	for id, n := range s.nodes {
		if n.kind == kind {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// denseFabric builds a small fabric — 5 OPSs, 4 ToRs, 8 PMs with 2 VMs
// each — and its shadow.
func denseFabric(t *testing.T) (*topology.Topology, *shadow) {
	t.Helper()
	topo := topology.New()
	s := &shadow{nodes: make(map[topology.NodeID]*shadowNode)}
	node := func(id topology.NodeID, kind topology.NodeKind, host topology.NodeID) topology.NodeID {
		s.nodes[id] = &shadowNode{kind: kind, host: host}
		return id
	}
	var opss, tors, pms []topology.NodeID
	for i := 0; i < 5; i++ {
		opss = append(opss, node(topo.AddOPS(i%2 == 0, topology.Resources{CPUCores: 4}), topology.KindOPS, 0))
	}
	for r := 0; r < 4; r++ {
		tors = append(tors, node(topo.AddToR(r), topology.KindToR, 0))
	}
	for i := 0; i < 8; i++ {
		pms = append(pms, node(topo.AddPM(i%4, topology.Resources{CPUCores: 16}), topology.KindPhysicalMachine, 0))
	}
	for _, pm := range pms {
		for j := 0; j < 2; j++ {
			vm, err := topo.AddVM(pm, "web")
			if err != nil {
				t.Fatal(err)
			}
			node(vm, topology.KindVM, pm)
		}
	}
	link := func(a, b topology.NodeID, kind topology.LinkKind) {
		id, err := topo.AddLink(a, b, kind, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.links = append(s.links, shadowLink{id: id, from: a, to: b})
	}
	for i := range opss {
		link(opss[i], opss[(i+1)%len(opss)], topology.LinkOptical)
	}
	for i, tor := range tors {
		for j := 0; j < 3; j++ {
			link(tor, opss[(i+j)%len(opss)], topology.LinkBoundary)
		}
	}
	for i, pm := range pms {
		link(pm, tors[i%4], topology.LinkElectronic)
	}
	return topo, s
}

// TestDenseTablesEqualBruteForce drives seeded sequences of node and
// link failures and recoveries, VM removals, migrations and arrivals,
// and new links — parallel ones between an already linked pair among
// them — and after every step holds the topology's ID tables, its
// node-pair link resolution, resilience.PathLinks / PathAlive and the
// routing snapshot's vertex index to a brute-force reading of the
// test's own model.
func TestDenseTablesEqualBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		topo, s := denseFabric(t)
		rng := rand.New(rand.NewSource(seed))
		pick := func(ids []topology.NodeID) topology.NodeID { return ids[rng.Intn(len(ids))] }
		parallels := 0
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(8); op {
			case 0, 1: // fail or recover a switch or machine
				kinds := []topology.NodeKind{topology.KindOPS, topology.KindToR, topology.KindPhysicalMachine}
				id := pick(s.ofKind(kinds[rng.Intn(len(kinds))]))
				if err := topo.SetDown(topology.NewFailures([]topology.NodeID{id}, nil), op == 0); err != nil {
					t.Fatal(err)
				}
				s.nodes[id].down = op == 0
			case 2, 3: // fail or recover a batch of links
				var ids []topology.LinkID
				for n := 1 + rng.Intn(3); n > 0; n-- {
					i := rng.Intn(len(s.links))
					ids = append(ids, s.links[i].id)
					s.links[i].down = op == 2
				}
				if err := topo.SetDown(topology.NewFailures(nil, ids), op == 2); err != nil {
					t.Fatal(err)
				}
			case 4: // a VM departs, leaving a hole in the table
				if vms := s.ofKind(topology.KindVM); len(vms) > 4 {
					vm := pick(vms)
					if err := topo.RemoveVM(vm); err != nil {
						t.Fatal(err)
					}
					delete(s.nodes, vm)
				}
			case 5: // a VM migrates
				vm, pm := pick(s.ofKind(topology.KindVM)), pick(s.ofKind(topology.KindPhysicalMachine))
				if err := topo.MigrateVM(vm, pm); err != nil {
					t.Fatal(err)
				}
				s.nodes[vm].host = pm
			case 6: // a VM arrives
				pm := pick(s.ofKind(topology.KindPhysicalMachine))
				vm, err := topo.AddVM(pm, "web")
				if err != nil {
					t.Fatal(err)
				}
				s.nodes[vm] = &shadowNode{kind: topology.KindVM, host: pm}
			case 7: // a new link, often parallel to one the pair has
				var a, b topology.NodeID
				var kind topology.LinkKind
				switch rng.Intn(3) {
				case 0:
					a, b, kind = pick(s.ofKind(topology.KindToR)), pick(s.ofKind(topology.KindOPS)), topology.LinkBoundary
				case 1:
					a, b, kind = pick(s.ofKind(topology.KindOPS)), pick(s.ofKind(topology.KindOPS)), topology.LinkOptical
				default:
					a, b, kind = pick(s.ofKind(topology.KindPhysicalMachine)), pick(s.ofKind(topology.KindToR)), topology.LinkElectronic
				}
				if a == b {
					continue
				}
				if s.linkBetween(a, b, false) != 0 {
					parallels++
				}
				if rng.Intn(2) == 0 {
					a, b = b, a
				}
				id, err := topo.AddLink(a, b, kind, 10, 1)
				if err != nil {
					t.Fatal(err)
				}
				s.links = append(s.links, shadowLink{id: id, from: a, to: b})
			}
			checkDense(t, seed, step, topo, s, rng)
		}
		if parallels == 0 {
			t.Fatalf("seed %d: no parallel link was added; the sequence does not exercise them", seed)
		}
	}
}

// checkDense holds every answer of the topology to the model.
func checkDense(t *testing.T, seed int64, step int, topo *topology.Topology, s *shadow, rng *rand.Rand) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
	}
	// The node table, holes included.
	var ids []topology.NodeID
	for id := range s.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	maxID := ids[len(ids)-1] + 3
	for id := topology.NodeID(-1); id <= maxID; id++ {
		n, want := topo.Node(id), s.nodes[id]
		if (n == nil) != (want == nil) {
			fail("Node(%d) = %v, model %v", id, n, want)
		}
		if n != nil && (n.ID != id || n.Kind != want.kind || n.Host != want.host || n.Down != want.down) {
			fail("Node(%d) = %+v, model %+v", id, n, want)
		}
	}
	var got []topology.NodeID
	for _, n := range topo.Nodes() {
		got = append(got, n.ID)
	}
	if !slices.Equal(got, ids) {
		fail("Nodes() = %v, model %v", got, ids)
	}
	got = got[:0]
	for _, n := range topo.Nodes(topology.KindVM, topology.KindToR) {
		got = append(got, n.ID)
	}
	want := append(s.ofKind(topology.KindToR), s.ofKind(topology.KindVM)...)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		fail("Nodes(VM, ToR) = %v, model %v", got, want)
	}
	// The link table.
	links := topo.Links()
	if len(links) != len(s.links) {
		fail("Links() has %d, model %d", len(links), len(s.links))
	}
	for i, l := range links {
		w := s.links[i]
		if l.ID != w.id || l.From != w.from || l.To != w.to || l.Down != w.down || topo.Link(w.id) != l {
			fail("link %d = %+v, model %+v", i, l, w)
		}
	}
	if topo.Link(0) != nil || topo.Link(topology.LinkID(len(s.links)+1)) != nil || topo.Link(-1) != nil {
		fail("Link answers an ID outside the table")
	}
	// Node-pair link resolution, every ordered pair and a few unknown IDs.
	for a := topology.NodeID(0); a <= maxID; a++ {
		for b := topology.NodeID(0); b <= maxID; b++ {
			for _, live := range []bool{true, false} {
				var l *topology.Link
				if live {
					l = topo.LinkBetween(a, b)
				} else {
					l = topo.AnyLinkBetween(a, b)
				}
				gotID := topology.LinkID(0)
				if l != nil {
					gotID = l.ID
				}
				if w := s.linkBetween(a, b, live); gotID != w {
					fail("linkBetween(%d, %d, live=%v) = %d, model %d", a, b, live, gotID, w)
				}
			}
		}
	}
	// Paths: random walks over the model's links, some entered and left
	// through a VM, some through a node that is gone.
	adj := make(map[topology.NodeID][]topology.NodeID)
	for _, l := range s.links {
		adj[l.from] = append(adj[l.from], l.to)
		adj[l.to] = append(adj[l.to], l.from)
	}
	vms := s.ofKind(topology.KindVM)
	for trial := 0; trial < 20; trial++ {
		path := []topology.NodeID{ids[rng.Intn(len(ids))]}
		if trial%4 == 0 {
			vm := vms[rng.Intn(len(vms))]
			path = []topology.NodeID{vm, s.nodes[vm].host}
		}
		for hops := rng.Intn(5); hops > 0 && len(adj[path[len(path)-1]]) > 0; hops-- {
			next := adj[path[len(path)-1]]
			path = append(path, next[rng.Intn(len(next))])
		}
		switch trial % 5 {
		case 1: // a hop with no link at all
			path = append(path, ids[rng.Intn(len(ids))])
		case 2: // a removed or never-created node
			path = append(path, maxID)
		}
		gotLinks, gotOK := topo.AppendPathLinks(nil, path)
		wantLinks, ok := s.pathLinks(path)
		if gotOK != ok || !slices.Equal(gotLinks, wantLinks) {
			fail("AppendPathLinks(%v) = %v, %v; model %v, ok %v", path, gotLinks, gotOK, wantLinks, ok)
		}
		if got, w := resilience.PathAlive(topo, path), s.pathAlive(path); got != w {
			fail("PathAlive(%v) = %v, model %v", path, got, w)
		}
	}
	// The routing snapshot's vertex index: every vertex — every node but
	// a VM — at its position, and nothing else indexed.
	f := topo.RoutingSnapshot().Graph()
	var vertices []graph.VertexID
	for _, id := range ids {
		if s.nodes[id].kind != topology.KindVM {
			vertices = append(vertices, graph.VertexID(id))
		}
	}
	if !slices.Equal(f.Vertices(), vertices) {
		fail("snapshot vertices %v, model %v", f.Vertices(), vertices)
	}
	for v := graph.VertexID(-2); v <= graph.VertexID(maxID); v++ {
		i, found := f.IndexOf(v)
		pos, want := slices.BinarySearch(vertices, v)
		if found != want || found && int(i) != pos {
			fail("IndexOf(%d) = %d, %v; want %d, %v", v, i, found, pos, want)
		}
	}
}
