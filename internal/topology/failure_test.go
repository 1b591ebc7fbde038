package topology

import "testing"

func TestSetNodeDownHidesFromQueries(t *testing.T) {
	topo, ids := smallTopo(t)
	if err := topo.SetNodeDown(ids["ops1"], true); err != nil {
		t.Fatalf("SetNodeDown: %v", err)
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
	if err := topo.SetNodeDown(ids["ops1"], false); err != nil {
		t.Fatalf("SetNodeDown(false): %v", err)
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
	if err := topo.SetNodeDown(9999, true); err == nil {
		t.Fatal("unknown node accepted")
	}
	if err := topo.SetLinkDown(9999, true); err == nil {
		t.Fatal("unknown link accepted")
	}
}

func TestSetLinkDownHidesEdge(t *testing.T) {
	topo, ids := smallTopo(t)
	var boundary LinkID
	for _, l := range topo.LinksOf(ids["tor1"]) {
		if l.Kind == LinkBoundary && (l.From == ids["ops1"] || l.To == ids["ops1"]) {
			boundary = l.ID
		}
	}
	if err := topo.SetLinkDown(boundary, true); err != nil {
		t.Fatalf("SetLinkDown: %v", err)
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
	if err := topo.SetNodeDown(ids["vm1"], true); err != nil {
		t.Fatalf("SetNodeDown: %v", err)
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
	if err := topo.SetNodeDown(ids["pm1"], true); err != nil {
		t.Fatalf("SetNodeDown: %v", err)
	}
	g := routingGraph(topo, true, nil)
	if g.HasVertex(gv(ids["vm1"])) || g.HasVertex(gv(ids["vm2"])) {
		t.Fatal("VMs of down PM present in routing graph")
	}
}
