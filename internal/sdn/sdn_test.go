package sdn

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

// chainTopo builds: pm1-tor1-(ops1=ops2)-tor2-pm2 with VMs on both PMs.
func chainTopo(t *testing.T) (*topology.Topology, map[string]topology.NodeID) {
	t.Helper()
	topo := topology.New()
	ids := map[string]topology.NodeID{}
	ids["ops1"] = topo.AddOPS(true, topology.Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 16})
	ids["ops2"] = topo.AddOPS(false, topology.Resources{})
	ids["tor1"] = topo.AddToR(0)
	ids["tor2"] = topo.AddToR(1)
	ids["pm1"] = topo.AddPM(0, topology.Resources{CPUCores: 32, MemoryGB: 64, StorageGB: 512})
	ids["pm2"] = topo.AddPM(1, topology.Resources{CPUCores: 32, MemoryGB: 64, StorageGB: 512})
	link := func(a, b topology.NodeID, k topology.LinkKind) {
		t.Helper()
		if _, err := topo.AddLink(a, b, k, 10, 1); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
	}
	link(ids["ops1"], ids["ops2"], topology.LinkOptical)
	link(ids["tor1"], ids["ops1"], topology.LinkBoundary)
	link(ids["tor2"], ids["ops2"], topology.LinkBoundary)
	link(ids["pm1"], ids["tor1"], topology.LinkElectronic)
	link(ids["pm2"], ids["tor2"], topology.LinkElectronic)
	var err error
	ids["vm1"], err = topo.AddVM(ids["pm1"], "web")
	if err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	ids["vm2"], err = topo.AddVM(ids["pm2"], "web")
	if err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	return topo, ids
}

func TestComputePathCrossesCore(t *testing.T) {
	topo, ids := chainTopo(t)
	c, err := NewController(topo)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	path, err := c.ComputePath(ids["vm1"], ids["vm2"], nil)
	if err != nil {
		t.Fatalf("ComputePath: %v", err)
	}
	// vm1 pm1 tor1 ops1 ops2 tor2 pm2 vm2
	if len(path) != 8 {
		t.Fatalf("path = %v, want 8 hops", path)
	}
	if path[0] != ids["vm1"] || path[len(path)-1] != ids["vm2"] {
		t.Fatalf("endpoints wrong: %v", path)
	}
}

func TestComputePathRestricted(t *testing.T) {
	topo, ids := chainTopo(t)
	c, _ := NewController(topo)
	// Restricting to ops1 only removes ops2, disconnecting tor2.
	_, err := c.ComputePath(ids["vm1"], ids["vm2"], topology.NodeSet{ids["ops1"]})
	if err == nil {
		t.Fatal("path found through excluded OPS")
	}
	// Restricting to both works.
	allow := topology.NewNodeSet(ids["ops1"], ids["ops2"])
	if _, err := c.ComputePath(ids["vm1"], ids["vm2"], allow); err != nil {
		t.Fatalf("ComputePath with full slice: %v", err)
	}
}

func TestComputePathVia(t *testing.T) {
	topo, ids := chainTopo(t)
	c, _ := NewController(topo)
	// Visit ops1 (a VNF host) on the way.
	path, err := c.ComputePathVia(ids["vm1"], []topology.NodeID{ids["ops1"]}, ids["vm2"], nil)
	if err != nil {
		t.Fatalf("ComputePathVia: %v", err)
	}
	found := false
	for _, n := range path {
		if n == ids["ops1"] {
			found = true
		}
	}
	if !found {
		t.Fatalf("waypoint not on path %v", path)
	}
	// Consecutive duplicate waypoints are merged.
	p2, err := c.ComputePathVia(ids["vm1"], []topology.NodeID{ids["ops1"], ids["ops1"]}, ids["vm2"], nil)
	if err != nil {
		t.Fatalf("ComputePathVia dup: %v", err)
	}
	if len(p2) != len(path) {
		t.Fatalf("duplicate waypoint changed path: %v vs %v", p2, path)
	}
}

func TestInstallPathRules(t *testing.T) {
	topo, ids := chainTopo(t)
	c, _ := NewController(topo)
	path, err := c.ComputePath(ids["vm1"], ids["vm2"], nil)
	if err != nil {
		t.Fatalf("ComputePath: %v", err)
	}
	m := Match{FlowKey: "tenant-a/chain-1", Src: ids["vm1"], Dst: ids["vm2"]}
	if _, _, err := reroute(c, m, path, 10); err != nil {
		t.Fatalf("Reroute: %v", err)
	}
	if rules := ruleIDs(c, m.FlowKey); len(rules) != len(path) {
		t.Fatalf("rules = %d, want one per hop %d", len(rules), len(path))
	}
	if c.RuleCount() != len(path) {
		t.Fatalf("RuleCount = %d", c.RuleCount())
	}
	// Final rule delivers.
	last := c.RulesAt(ids["vm2"])
	if len(last) != 1 || last[0].Actions[len(last[0].Actions)-1].Type != ActionDeliver {
		t.Fatalf("last rule = %+v", last)
	}
	// Boundary hop tor1->ops1 must carry an E→O conversion action.
	tor1Rules := c.RulesAt(ids["tor1"])
	if len(tor1Rules) != 1 {
		t.Fatalf("tor1 rules = %+v", tor1Rules)
	}
	foundEO := false
	for _, a := range tor1Rules[0].Actions {
		if a.Type == ActionConvertEO {
			foundEO = true
		}
	}
	if !foundEO {
		t.Fatalf("tor1 rule lacks convert-eo: %+v", tor1Rules[0].Actions)
	}
	// ops2->tor2 must carry an O→E conversion.
	ops2Rules := c.RulesAt(ids["ops2"])
	foundOE := false
	for _, a := range ops2Rules[0].Actions {
		if a.Type == ActionConvertOE {
			foundOE = true
		}
	}
	if !foundOE {
		t.Fatalf("ops2 rule lacks convert-oe: %+v", ops2Rules[0].Actions)
	}
	paths, installed := c.Stats()
	if paths != 1 || installed != len(path) {
		t.Fatalf("stats = %d, %d", paths, installed)
	}
}

func TestInstallPathValidation(t *testing.T) {
	topo, ids := chainTopo(t)
	c, _ := NewController(topo)
	if _, _, err := reroute(c, Match{FlowKey: "k"}, nil, 1); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, _, err := reroute(c, Match{}, []topology.NodeID{ids["vm1"]}, 1); err == nil {
		t.Fatal("empty flow key accepted")
	}
	if _, _, err := reroute(c, Match{FlowKey: "k"}, []topology.NodeID{9999}, 1); err == nil {
		t.Fatal("unknown node accepted")
	}
	// A rejected path touches nothing: the flow installed under the key
	// keeps its rules and the counters stay where they were.
	path := []topology.NodeID{ids["vm1"], ids["pm1"], ids["tor1"]}
	if _, _, err := reroute(c, Match{FlowKey: "k"}, path, 1); err != nil {
		t.Fatalf("Reroute: %v", err)
	}
	before := c.RulesForFlow("k")
	if _, _, err := reroute(c, Match{FlowKey: "k"}, []topology.NodeID{ids["vm1"], 9999, ids["tor1"]}, 1); err == nil {
		t.Fatal("unknown node accepted under a live key")
	}
	if got := c.RulesForFlow("k"); !reflect.DeepEqual(got, before) {
		t.Fatalf("a rejected reroute changed the flow's rules: %+v, was %+v", got, before)
	}
	if paths, rules := c.Stats(); paths != 1 || rules != len(path) {
		t.Fatalf("Stats = %d, %d after one install and a rejected reroute", paths, rules)
	}
}

func TestRemoveFlow(t *testing.T) {
	topo, ids := chainTopo(t)
	c, _ := NewController(topo)
	path, _ := c.ComputePath(ids["vm1"], ids["vm2"], nil)
	m1 := Match{FlowKey: "a", Src: ids["vm1"], Dst: ids["vm2"]}
	m2 := Match{FlowKey: "b", Src: ids["vm1"], Dst: ids["vm2"]}
	if _, _, err := reroute(c, m1, path, 1); err != nil {
		t.Fatalf("Reroute: %v", err)
	}
	if _, _, err := reroute(c, m2, path, 1); err != nil {
		t.Fatalf("Reroute: %v", err)
	}
	removed := c.RemoveFlow("a")
	if removed != len(path) {
		t.Fatalf("removed = %d, want %d", removed, len(path))
	}
	if got := len(c.RulesForFlow("a")); got != 0 {
		t.Fatalf("flow a still has %d rules", got)
	}
	if got := len(c.RulesForFlow("b")); got != len(path) {
		t.Fatalf("flow b lost rules: %d", got)
	}
	if c.RemoveFlow("nonexistent") != 0 {
		t.Fatal("removing unknown flow reported removals")
	}
}

// TestWalk holds Walk to what a packet would meet on each installed
// route of chainTopo: delivery along the path (a VM's hop to its host
// needs no link record, and a path may pass a switch twice), a miss, a
// delivery short of the egress, a forward to a switch with no rule for
// that hop, two rules tied for one visit, a hop no link joins and a dead
// link.
func TestWalk(t *testing.T) {
	topo, ids := chainTopo(t)
	vm1, pm1, tor1, ops1, ops2, tor2, pm2, vm2 := ids["vm1"], ids["pm1"], ids["tor1"], ids["ops1"], ids["ops2"], ids["tor2"], ids["pm2"], ids["vm2"]
	full := []topology.NodeID{vm1, pm1, tor1, ops1, ops2, tor2, pm2, vm2}
	for _, tc := range []struct {
		name  string
		path  []topology.NodeID
		match Match // Src and Dst default to the path's ends
		edit  func(t *testing.T, c *Controller)
		want  error
		oe    int
		eo    int
	}{
		{name: "across the core", path: full, oe: 1, eo: 1},
		{name: "vm to host, no link record", path: []topology.NodeID{vm1, pm1}},
		{name: "one switch", path: []topology.NodeID{tor1}},
		{name: "no rules", want: ErrBlackhole},
		{name: "miss at the ingress", path: full[1:], match: Match{Src: vm1, Dst: vm2}, want: ErrBlackhole},
		{name: "delivered short of the egress", path: full[:4], match: Match{Src: vm1, Dst: vm2}, want: ErrBlackhole},
		{name: "out to a host and back", path: []topology.NodeID{vm1, pm1, tor1, pm1, tor1, ops1, ops2, tor2, pm2, vm2}, oe: 1, eo: 1},
		{name: "forwarded back", path: full, want: ErrBlackhole, edit: func(_ *testing.T, c *Controller) {
			back := c.flow("k")[4].Actions   // ops2's rule: convert, forward to tor2
			back[len(back)-1].NextHop = ops1 // whose one rule is for hop 3
		}},
		{name: "two rules claim one visit", path: full, want: ErrAmbiguous, edit: func(_ *testing.T, c *Controller) {
			twin := c.flow("k")[2]
			c.tables[tor1] = append(c.tables[tor1], &twin)
		}},
		{name: "hop with no link", path: []topology.NodeID{vm1, pm1, ops1, ops2}, want: ErrNoLink},
		{name: "dead link", path: full, want: ErrNoLink, edit: func(t *testing.T, _ *Controller) {
			core := topology.NewFailures(nil, []topology.LinkID{topo.LinkBetween(ops1, ops2).ID})
			if err := topo.SetDown(core, true); err != nil {
				t.Fatalf("SetDown: %v", err)
			}
			t.Cleanup(func() { _ = topo.SetDown(core, false) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := NewController(topo)
			m := Match{FlowKey: "k", Src: tc.match.Src, Dst: tc.match.Dst}
			if tc.path != nil {
				if m.Src == 0 {
					m.Src, m.Dst = tc.path[0], tc.path[len(tc.path)-1]
				}
				if _, _, err := reroute(c, m, tc.path, 1); err != nil {
					t.Fatalf("Reroute: %v", err)
				}
			}
			if tc.edit != nil {
				tc.edit(t, c)
			}
			w, err := c.Walk("k")
			if tc.want != nil {
				if !errors.Is(err, tc.want) {
					t.Fatalf("Walk = %+v, %v; want %v", w, err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("Walk: %v", err)
			}
			links, _ := topo.AppendPathLinks(nil, tc.path)
			var hops []topology.LinkID
			for _, l := range w.Links {
				if l != 0 {
					hops = append(hops, l)
				}
			}
			if !slices.Equal(w.Route, tc.path) || len(w.Links) != len(tc.path)-1 || !slices.Equal(hops, links) ||
				!slices.Equal(w.Rules, ruleIDs(c, "k")) || w.OE != tc.oe || w.EO != tc.eo {
				t.Fatalf("Walk = %+v; want route %v over links %v, rules %v, oe %d, eo %d", w, tc.path, links, ruleIDs(c, "k"), tc.oe, tc.eo)
			}
		})
	}
}

// TestPathAlternatives: Yen runs between vertices of the routing graph
// (a VM is none, so its host stands in for it).
func TestPathAlternatives(t *testing.T) {
	topo, ids := chainTopo(t)
	c, _ := NewController(topo)
	paths, err := c.PathAlternatives(ids["pm1"], ids["pm2"], 3, topology.Pool{})
	if err != nil {
		t.Fatalf("PathAlternatives: %v", err)
	}
	if len(paths) == 0 {
		t.Fatal("no alternatives")
	}
	// The line topology admits exactly one loopless path.
	if len(paths) != 1 {
		t.Fatalf("alternatives = %d, want 1 on a line", len(paths))
	}
	if paths[0][0] != ids["pm1"] || paths[0][len(paths[0])-1] != ids["pm2"] {
		t.Fatalf("endpoints wrong: %v", paths[0])
	}
	if _, err := c.PathAlternatives(ids["pm1"], ids["pm2"], 0, topology.Pool{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := c.PathAlternatives(9999, ids["pm2"], 1, topology.Pool{}); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestRecordHits(t *testing.T) {
	topo, ids := chainTopo(t)
	c, _ := NewController(topo)
	path, _ := c.ComputePath(ids["vm1"], ids["vm2"], nil)
	m := Match{FlowKey: "k", Src: ids["vm1"], Dst: ids["vm2"]}
	if _, _, err := reroute(c, m, path, 1); err != nil {
		t.Fatalf("Reroute: %v", err)
	}
	credited := c.RecordHits("k", 5)
	if credited != len(path) {
		t.Fatalf("credited = %d, want %d rules", credited, len(path))
	}
	if got := c.FlowHits("k"); got != int64(5*len(path)) {
		t.Fatalf("FlowHits = %d, want %d", got, 5*len(path))
	}
	// Per-rule counters visible through RulesAt.
	r := c.RulesAt(ids["vm1"])
	if r[0].Hits != 5 {
		t.Fatalf("rule hits = %d, want 5", r[0].Hits)
	}
	if c.RecordHits("k", 0) != 0 || c.RecordHits("k", -3) != 0 {
		t.Fatal("non-positive hit counts must be ignored")
	}
	if c.RecordHits("unknown", 1) != 0 {
		t.Fatal("unknown flow credited")
	}
	if c.FlowHits("unknown") != 0 {
		t.Fatal("unknown flow has hits")
	}
}

func TestNewControllerNil(t *testing.T) {
	if _, err := NewController(nil); err == nil {
		t.Fatal("nil topology accepted")
	}
}

func TestActionString(t *testing.T) {
	for a, want := range map[ActionType]string{
		ActionForward: "forward", ActionConvertOE: "convert-oe",
		ActionConvertEO: "convert-eo", ActionDeliver: "deliver",
	} {
		if a.String() != want {
			t.Errorf("%d.String() = %q want %q", a, a, want)
		}
	}
	if ActionType(99).String() == "" {
		t.Error("unknown action must render")
	}
}

func TestRulesAtReturnsCopies(t *testing.T) {
	topo, ids := chainTopo(t)
	c, _ := NewController(topo)
	path, _ := c.ComputePath(ids["vm1"], ids["vm2"], nil)
	if _, _, err := reroute(c, Match{FlowKey: "k", Src: ids["vm1"], Dst: ids["vm2"]}, path, 1); err != nil {
		t.Fatalf("Reroute: %v", err)
	}
	rules := c.RulesAt(ids["vm1"])
	rules[0].Actions[0].Type = ActionDeliver
	fresh := c.RulesAt(ids["vm1"])
	if fresh[0].Actions[0].Type == ActionDeliver && len(fresh[0].Actions) == 1 {
		// vm1 is the first hop; its action should be forward (plus
		// possible conversions), never a lone deliver.
		t.Fatal("mutating returned rules affected controller state")
	}
}
