package sdn

import (
	"reflect"
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

// TestRerouteSwapsRuleGenerations reroutes a flow to a shorter path (as
// after a repair that moved a VNF), which takes a new rule block, and then
// to a path of the same length over other switches (as a swap to the
// standby), which rewrites the block in place: either way exactly the new
// generation remains, and its IDs are strictly newer than the old's.
func TestRerouteSwapsRuleGenerations(t *testing.T) {
	topo, ids := chainTopo(t)
	c, err := NewController(topo)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	m := Match{FlowKey: "t/chain", Src: ids["vm1"], Dst: ids["vm2"]}
	oldPath := []topology.NodeID{ids["vm1"], ids["pm1"], ids["tor1"], ids["ops1"], ids["ops2"], ids["tor2"], ids["pm2"], ids["vm2"]}
	if _, _, err := reroute(c, m, oldPath, 100); err != nil {
		t.Fatalf("Reroute (install): %v", err)
	}
	for _, newPath := range [][]topology.NodeID{
		{ids["vm1"], ids["pm1"], ids["tor1"], ids["ops1"], ids["ops2"], ids["tor2"], ids["vm2"]},
		{ids["vm1"], ids["pm1"], ids["tor1"], ids["ops2"], ids["ops1"], ids["tor2"], ids["vm2"]},
	} {
		oldIDs := ruleIDs(c, m.FlowKey)
		if _, _, err := reroute(c, m, newPath, 100); err != nil {
			t.Fatalf("Reroute: %v", err)
		}
		newIDs := ruleIDs(c, m.FlowKey)
		// Exactly the new generation remains.
		if len(newIDs) != len(newPath) {
			t.Fatalf("rules after reroute = %d, want %d", len(newIDs), len(newPath))
		}
		oldSet := make(map[RuleID]bool, len(oldIDs))
		for _, id := range oldIDs {
			oldSet[id] = true
		}
		for _, id := range newIDs {
			if oldSet[id] {
				t.Fatalf("old-generation rule %d survived the reroute", id)
			}
		}
		// New rule IDs are strictly newer than the old generation — the
		// make-before-break order (install first, then remove).
		for _, id := range newIDs {
			for _, old := range oldIDs {
				if id <= old {
					t.Fatalf("new rule %d not newer than old rule %d", id, old)
				}
			}
		}
	}
}

func TestRerouteWithoutPriorRulesIsInstall(t *testing.T) {
	topo, ids := chainTopo(t)
	c, err := NewController(topo)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	m := Match{FlowKey: "t/fresh", Src: ids["vm1"], Dst: ids["vm2"]}
	path := []topology.NodeID{ids["vm1"], ids["pm1"], ids["tor1"], ids["ops1"], ids["ops2"], ids["tor2"], ids["pm2"], ids["vm2"]}
	if _, _, err := reroute(c, m, path, 100); err != nil {
		t.Fatalf("Reroute: %v", err)
	}
	if got := len(c.RulesForFlow("t/fresh")); got != len(path) {
		t.Fatalf("rules = %d, want %d", got, len(path))
	}
}

func TestRerouteLeavesOtherFlowsAlone(t *testing.T) {
	topo, ids := chainTopo(t)
	c, err := NewController(topo)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	path := []topology.NodeID{ids["vm1"], ids["pm1"], ids["tor1"], ids["ops1"], ids["ops2"], ids["tor2"], ids["pm2"], ids["vm2"]}
	other := Match{FlowKey: "t/other", Src: ids["vm1"], Dst: ids["vm2"]}
	if _, _, err := reroute(c, other, path, 100); err != nil {
		t.Fatalf("Reroute other: %v", err)
	}
	m := Match{FlowKey: "t/chain", Src: ids["vm1"], Dst: ids["vm2"]}
	if _, _, err := reroute(c, m, path, 100); err != nil {
		t.Fatalf("Reroute: %v", err)
	}
	want := c.RulesForFlow("t/other")
	// A shorter path (a new block), then one of its length over other
	// switches (in place): the other flow's rules stay as they were.
	for _, p := range [][]topology.NodeID{path[:4], path[4:]} {
		if _, _, err := reroute(c, m, p, 100); err != nil {
			t.Fatalf("Reroute: %v", err)
		}
		if got := c.RulesForFlow("t/other"); !reflect.DeepEqual(got, want) {
			t.Fatalf("other flow's rules = %+v, want %+v", got, want)
		}
	}
}

func TestRerouteValidation(t *testing.T) {
	topo, ids := chainTopo(t)
	c, err := NewController(topo)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	if _, _, err := reroute(c, Match{FlowKey: "k"}, nil, 100); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, _, err := reroute(c, Match{}, []topology.NodeID{ids["vm1"]}, 100); err == nil {
		t.Fatal("empty flow key accepted")
	}
	if _, _, err := reroute(c, Match{FlowKey: "k"}, []topology.NodeID{99999}, 100); err == nil {
		t.Fatal("unknown node accepted")
	}
}
