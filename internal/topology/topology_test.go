package topology

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/alvc/alvc/internal/graph"
)

// smallTopo builds a 2-rack, 2-OPS topology by hand:
//
//	OPS1 === OPS2        (optical)
//	 |   \   /  |        (boundary)
//	ToR1   ToR2
//	 |       |
//	PM1     PM2          (electronic; PM1 dual-homed to ToR2)
//	vm,vm   vm
func smallTopo(t *testing.T) (*Topology, map[string]NodeID) {
	t.Helper()
	topo := New()
	ids := make(map[string]NodeID)
	ids["ops1"] = topo.AddOPS(true, Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 16})
	ids["ops2"] = topo.AddOPS(false, Resources{})
	ids["tor1"] = topo.AddToR(0)
	ids["tor2"] = topo.AddToR(1)
	ids["pm1"] = topo.AddPM(0, Resources{CPUCores: 16, MemoryGB: 64, StorageGB: 512})
	ids["pm2"] = topo.AddPM(1, Resources{CPUCores: 16, MemoryGB: 64, StorageGB: 512})
	mustLink := func(a, b NodeID, k LinkKind) {
		t.Helper()
		if _, err := topo.AddLink(a, b, k, 10, 1); err != nil {
			t.Fatalf("AddLink(%d,%d,%v): %v", a, b, k, err)
		}
	}
	mustLink(ids["ops1"], ids["ops2"], LinkOptical)
	mustLink(ids["tor1"], ids["ops1"], LinkBoundary)
	mustLink(ids["tor1"], ids["ops2"], LinkBoundary)
	mustLink(ids["tor2"], ids["ops1"], LinkBoundary)
	mustLink(ids["tor2"], ids["ops2"], LinkBoundary)
	mustLink(ids["pm1"], ids["tor1"], LinkElectronic)
	mustLink(ids["pm1"], ids["tor2"], LinkElectronic) // dual-homed
	mustLink(ids["pm2"], ids["tor2"], LinkElectronic)
	var err error
	ids["vm1"], err = topo.AddVM(ids["pm1"], "web")
	if err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	ids["vm2"], err = topo.AddVM(ids["pm1"], "mapreduce")
	if err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	ids["vm3"], err = topo.AddVM(ids["pm2"], "web")
	if err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	return topo, ids
}

func TestSmallTopoValid(t *testing.T) {
	topo, _ := smallTopo(t)
	if err := topo.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddVMRejectsNonPM(t *testing.T) {
	topo, ids := smallTopo(t)
	if _, err := topo.AddVM(ids["tor1"], "web"); err == nil {
		t.Fatal("AddVM on a ToR accepted")
	}
	if _, err := topo.AddVM(9999, "web"); err == nil {
		t.Fatal("AddVM on unknown node accepted")
	}
}

func TestAddLinkKindChecks(t *testing.T) {
	topo, ids := smallTopo(t)
	cases := []struct {
		name string
		a, b NodeID
		k    LinkKind
	}{
		{"electronic touching OPS", ids["pm1"], ids["ops1"], LinkElectronic},
		{"boundary between two OPS", ids["ops1"], ids["ops2"], LinkBoundary},
		{"boundary between two electronic", ids["pm1"], ids["tor1"], LinkBoundary},
		{"optical touching ToR", ids["tor1"], ids["ops1"], LinkOptical},
		{"self link", ids["pm1"], ids["pm1"], LinkElectronic},
		{"unknown node", ids["pm1"], 9999, LinkElectronic},
	}
	for _, tc := range cases {
		if _, err := topo.AddLink(tc.a, tc.b, tc.k, 1, 1); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestQueries(t *testing.T) {
	topo, ids := smallTopo(t)
	tors := topo.ToRsOfVM(ids["vm1"])
	if len(tors) != 2 {
		t.Fatalf("vm1 (dual-homed PM) ToRs = %v, want 2", tors)
	}
	tors = topo.ToRsOfVM(ids["vm3"])
	if len(tors) != 1 || tors[0] != ids["tor2"] {
		t.Fatalf("vm3 ToRs = %v, want [tor2]", tors)
	}
	ops := topo.OPSsOfToR(ids["tor1"])
	if len(ops) != 2 {
		t.Fatalf("tor1 OPSs = %v, want 2", ops)
	}
	byService := topo.VMsByService()
	if len(byService["web"]) != 2 || len(byService["mapreduce"]) != 1 {
		t.Fatalf("VMsByService = %v", byService)
	}
}

func TestToROPSBipartiteRestriction(t *testing.T) {
	topo, ids := smallTopo(t)
	lefts, err := topo.ToROPSBipartite([]NodeID{ids["tor1"]}, map[NodeID]bool{ids["ops1"]: true})
	if err != nil {
		t.Fatalf("ToROPSBipartite: %v", err)
	}
	if len(lefts) != 1 || !slices.Equal(lefts[0], []NodeID{ids["ops1"]}) {
		t.Fatalf("allowed uplinks = %v, want [[%d]]", lefts, ids["ops1"])
	}
	// A nil allow admits every live uplink.
	if lefts, _ := topo.ToROPSBipartite([]NodeID{ids["tor1"]}, nil); !slices.Equal(lefts[0], topo.OPSsOfToR(ids["tor1"])) {
		t.Fatalf("unrestricted uplinks = %v, want %v", lefts[0], topo.OPSsOfToR(ids["tor1"]))
	}
	if _, err := topo.ToROPSBipartite([]NodeID{ids["vm1"]}, nil); err == nil {
		t.Fatal("non-ToR accepted")
	}
}

func TestRoutingGraph(t *testing.T) {
	topo, ids := smallTopo(t)
	g := routingGraph(topo, false, nil)
	// VMs excluded by default.
	if g.HasVertex(1000) {
		t.Fatal("unexpected vertex")
	}
	path, _, err := g.ShortestPath(
		gv(ids["pm1"]), gv(ids["pm2"]))
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if len(path) < 3 {
		t.Fatalf("path pm1->pm2 = %v, want at least pm-tor-pm", path)
	}
	// Restricting OPSs removes them from the graph.
	g2 := routingGraph(topo, false, map[NodeID]bool{ids["ops1"]: true})
	if g2.HasVertex(gv(ids["ops2"])) {
		t.Fatal("restricted OPS still present")
	}
	// IncludeVMs wires VMs to their host PM.
	g3 := routingGraph(topo, true, nil)
	if !g3.HasVertex(gv(ids["vm1"])) {
		t.Fatal("vm missing with IncludeVMs")
	}
	if _, _, err := g3.ShortestPath(gv(ids["vm1"]), gv(ids["vm3"])); err != nil {
		t.Fatalf("vm-to-vm path: %v", err)
	}
}

func TestValidateCatchesOrphans(t *testing.T) {
	topo := New()
	pm := topo.AddPM(0, Resources{})
	if _, err := topo.AddVM(pm, "web"); err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	// PM has no ToR.
	if err := topo.Validate(); err == nil {
		t.Fatal("PM without ToR passed validation")
	}
}

func TestValidateCatchesToRWithoutOPS(t *testing.T) {
	topo := New()
	tor := topo.AddToR(0)
	pm := topo.AddPM(0, Resources{})
	if _, err := topo.AddLink(pm, tor, LinkElectronic, 1, 1); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if err := topo.Validate(); err == nil {
		t.Fatal("ToR without OPS uplink passed validation")
	}
}

func TestValidateCatchesDisconnectedFabric(t *testing.T) {
	topo := New()
	// Two islands: (tor1-ops1) and (tor2-ops2), no optical link.
	ops1 := topo.AddOPS(false, Resources{})
	ops2 := topo.AddOPS(false, Resources{})
	tor1 := topo.AddToR(0)
	tor2 := topo.AddToR(1)
	for _, pair := range [][2]NodeID{{tor1, ops1}, {tor2, ops2}} {
		if _, err := topo.AddLink(pair[0], pair[1], LinkBoundary, 1, 1); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
	}
	if err := topo.Validate(); err == nil {
		t.Fatal("disconnected fabric passed validation")
	}
}

func TestComputeStats(t *testing.T) {
	topo, _ := smallTopo(t)
	s := topo.ComputeStats()
	if s.PMs != 2 || s.VMs != 3 || s.ToRs != 2 || s.OPSs != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.OptoelectronicOPSs != 1 {
		t.Fatalf("opto OPSs = %d, want 1", s.OptoelectronicOPSs)
	}
	if s.BoundaryLinks != 4 || s.OpticalLinks != 1 || s.ElectronicLinks != 3 {
		t.Fatalf("links = %+v", s)
	}
	if s.Services != 2 {
		t.Fatalf("services = %d, want 2", s.Services)
	}
}

func TestJSONRoundTripShape(t *testing.T) {
	topo, _ := smallTopo(t)
	data, err := json.Marshal(topo)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded struct {
		Nodes []map[string]interface{} `json:"nodes"`
		Links []map[string]interface{} `json:"links"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(decoded.Nodes) != topo.NodeCount() {
		t.Fatalf("json nodes = %d, want %d", len(decoded.Nodes), topo.NodeCount())
	}
	if len(decoded.Links) != topo.LinkCount() {
		t.Fatalf("json links = %d, want %d", len(decoded.Links), topo.LinkCount())
	}
}

func TestDOTOutput(t *testing.T) {
	topo, _ := smallTopo(t)
	dot := topo.DOT(false)
	if !strings.HasPrefix(dot, "graph alvc {") {
		t.Fatalf("DOT header: %q", dot[:20])
	}
	if strings.Contains(dot, "shape=point") {
		t.Fatal("VMs rendered without includeVMs")
	}
	dotVM := topo.DOT(true)
	if !strings.Contains(dotVM, "shape=point") {
		t.Fatal("VMs missing with includeVMs")
	}
}

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 10}
	b := Resources{CPUCores: 1, MemoryGB: 2, StorageGB: 3}
	sum := a.Add(b)
	if sum.CPUCores != 5 || sum.MemoryGB != 10 || sum.StorageGB != 13 {
		t.Fatalf("Add = %+v", sum)
	}
	diff := a.Sub(b)
	if diff.CPUCores != 3 {
		t.Fatalf("Sub = %+v", diff)
	}
	if !a.Fits(b) {
		t.Fatal("b should fit in a")
	}
	if b.Fits(a) {
		t.Fatal("a should not fit in b")
	}
	if !(Resources{}).IsZero() {
		t.Fatal("zero value should be zero")
	}
	if a.IsZero() {
		t.Fatal("a is not zero")
	}
	half := a.Scale(0.5)
	if half.CPUCores != 2 {
		t.Fatalf("Scale = %+v", half)
	}
}

func TestNodeDomain(t *testing.T) {
	topo, ids := smallTopo(t)
	if topo.Node(ids["ops1"]).Domain() != DomainOptical {
		t.Fatal("OPS should be optical")
	}
	for _, k := range []string{"tor1", "pm1", "vm1"} {
		if topo.Node(ids[k]).Domain() != DomainElectronic {
			t.Fatalf("%s should be electronic", k)
		}
	}
}

func TestKindAndDomainStrings(t *testing.T) {
	if KindOPS.String() != "ops" || KindVM.String() != "vm" {
		t.Fatal("kind strings wrong")
	}
	if DomainOptical.String() != "optical" || DomainElectronic.String() != "electronic" {
		t.Fatal("domain strings wrong")
	}
	if LinkBoundary.String() != "boundary" {
		t.Fatal("link kind strings wrong")
	}
	if NodeKind(99).String() == "" || Domain(99).String() == "" || LinkKind(99).String() == "" {
		t.Fatal("unknown enum values must still render")
	}
}

// gv converts a topology NodeID to a graph VertexID for path queries.
func gv(id NodeID) graph.VertexID { return graph.VertexID(id) }

// TestValidateCountsFabricComponents: on random fabrics of ToR and OPS
// islands — some optical links down, a PM hung off an OPS by a boundary
// link — Validate's union-find reports the components a breadth-first
// walk over the ToRs, the OPSs and every boundary and optical link
// finds, and passes exactly when there is at most one — an empty
// topology has none.
func TestValidateCountsFabricComponents(t *testing.T) {
	if err := New().Validate(); err != nil {
		t.Fatalf("empty topology: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	disconnected := 0
	for trial := 0; trial < 300; trial++ {
		topo := New()
		var tors, opss []NodeID
		for i := 1 + rng.Intn(8); i > 0; i-- {
			opss = append(opss, topo.AddOPS(false, Resources{}))
		}
		link := func(a, b NodeID, kind LinkKind) LinkID {
			id, err := topo.AddLink(a, b, kind, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			return id
		}
		for i := rng.Intn(6); i > 0; i-- {
			tor := topo.AddToR(0)
			tors = append(tors, tor)
			link(tor, opss[rng.Intn(len(opss))], LinkBoundary)
		}
		for i := rng.Intn(len(opss) + 1); i > 0; i-- {
			a, b := opss[rng.Intn(len(opss))], opss[rng.Intn(len(opss))]
			if a == b {
				continue
			}
			if id := link(a, b, LinkOptical); rng.Intn(3) == 0 {
				if err := topo.SetLinkDown(id, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		if len(tors) > 0 && rng.Intn(3) == 0 {
			pm := topo.AddPM(0, Resources{})
			link(pm, tors[0], LinkElectronic)
			link(pm, opss[rng.Intn(len(opss))], LinkBoundary)
		}

		adj := make(map[NodeID][]NodeID)
		for _, id := range append(append([]NodeID{}, tors...), opss...) {
			adj[id] = nil
		}
		for _, l := range topo.Links() {
			if l.Kind != LinkElectronic {
				adj[l.From] = append(adj[l.From], l.To)
				adj[l.To] = append(adj[l.To], l.From)
			}
		}
		components, seen := 0, make(map[NodeID]bool)
		for v := range adj {
			if seen[v] {
				continue
			}
			components++
			seen[v] = true
			for queue := []NodeID{v}; len(queue) > 0; queue = queue[1:] {
				for _, w := range adj[queue[0]] {
					if !seen[w] {
						seen[w] = true
						queue = append(queue, w)
					}
				}
			}
		}
		err := topo.Validate()
		if components <= 1 {
			if err != nil {
				t.Fatalf("trial %d: one component, Validate: %v", trial, err)
			}
			continue
		}
		disconnected++
		if want := fmt.Sprintf("topology: validate: switching fabric is disconnected (%d components)", components); err == nil || err.Error() != want {
			t.Fatalf("trial %d: Validate = %v, want %q", trial, err, want)
		}
	}
	if disconnected < 50 || disconnected > 250 {
		t.Fatalf("%d of 300 fabrics were disconnected: the cases do not exercise both outcomes", disconnected)
	}
}
