package flow

import (
	"math"
	"testing"

	"github.com/alvc/alvc/internal/sdn"
	"github.com/alvc/alvc/internal/topology"
)

// pathTopo: vm1-pm1-tor1-ops1-ops2-tor2-pm2-vm2 plus an OER (ops1),
// and a third ToR joined to both OPSs, where a path can leave the
// optical core between them. It returns the transit path and the ToR.
func pathTopo(t *testing.T) (*topology.Topology, []topology.NodeID, topology.NodeID) {
	t.Helper()
	topo := topology.New()
	ops1 := topo.AddOPS(true, topology.Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 16})
	ops2 := topo.AddOPS(false, topology.Resources{})
	tor1 := topo.AddToR(0)
	tor2 := topo.AddToR(1)
	tor3 := topo.AddToR(2)
	pm1 := topo.AddPM(0, topology.Resources{CPUCores: 32, MemoryGB: 64, StorageGB: 256})
	pm2 := topo.AddPM(1, topology.Resources{CPUCores: 32, MemoryGB: 64, StorageGB: 256})
	link := func(a, b topology.NodeID, k topology.LinkKind, lat float64) {
		t.Helper()
		if _, err := topo.AddLink(a, b, k, 10, lat); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
	}
	link(ops1, ops2, topology.LinkOptical, 1)
	link(tor1, ops1, topology.LinkBoundary, 2)
	link(tor2, ops2, topology.LinkBoundary, 2)
	link(tor3, ops1, topology.LinkBoundary, 2)
	link(tor3, ops2, topology.LinkBoundary, 2)
	link(pm1, tor1, topology.LinkElectronic, 5)
	link(pm2, tor2, topology.LinkElectronic, 5)
	vm1, err := topo.AddVM(pm1, "web")
	if err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	vm2, err := topo.AddVM(pm2, "web")
	if err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	return topo, []topology.NodeID{vm1, pm1, tor1, ops1, ops2, tor2, pm2, vm2}, tor3
}

// walk installs path as a flow's rules on a controller of its own and
// returns the walk they take.
func walk(t *testing.T, topo *topology.Topology, path []topology.NodeID) sdn.Walk {
	t.Helper()
	c, err := sdn.NewController(topo)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	if _, _, err := c.Reroute(sdn.Match{FlowKey: "t/flow", Src: path[0], Dst: path[len(path)-1]}, path, 1); err != nil {
		t.Fatalf("Reroute: %v", err)
	}
	w, err := c.Walk("t/flow")
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	return w
}

func TestMeasureSimpleTransit(t *testing.T) {
	topo, path, _ := pathTopo(t)
	s, err := NewSimulator(topo, DefaultConfig())
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	pf, err := s.Measure(Spec{Walk: walk(t, topo, path), Bytes: 1 << 20})
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if pf.Hops != len(path)-1 {
		t.Fatalf("hops = %d, want %d", pf.Hops, len(path)-1)
	}
	// Ingress E→O and egress O→E only: 2 crossings, 0 chargeable
	// excursions.
	if pf.BoundaryCrossings != 2 {
		t.Fatalf("crossings = %d, want 2", pf.BoundaryCrossings)
	}
	if pf.OEOConversions != 0 {
		t.Fatalf("conversions = %d, want 0 (pure transit)", pf.OEOConversions)
	}
	if pf.EnergyJoules != 0 {
		t.Fatalf("energy = %f, want 0", pf.EnergyJoules)
	}
	// Latency: links 0.1(vm)+5+2+1+2+5+0.1(vm) plus 2 conversions × 10.
	want := 0.1 + 5 + 2 + 1 + 2 + 5 + 0.1 + 20
	if math.Abs(pf.LatencyUs-want) > 1e-9 {
		t.Fatalf("latency = %f, want %f", pf.LatencyUs, want)
	}
}

func TestMeasureElectronicExcursion(t *testing.T) {
	topo, path, tor3 := pathTopo(t)
	s, _ := NewSimulator(topo, DefaultConfig())
	// The path leaves the core for tor3 (an electronic VNF) mid-transit:
	// vm1 pm1 tor1 ops1 tor3 ops2 tor2 pm2 vm2 — 4 crossings.
	dip := []topology.NodeID{path[0], path[1], path[2], path[3], tor3, path[4], path[5], path[6], path[7]}
	pf, err := s.Measure(Spec{Walk: walk(t, topo, dip), Bytes: 1 << 20})
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if pf.BoundaryCrossings != 4 {
		t.Fatalf("crossings = %d, want 4", pf.BoundaryCrossings)
	}
	if pf.OEOConversions != 1 {
		t.Fatalf("conversions = %d, want 1 excursion", pf.OEOConversions)
	}
	if pf.EnergyJoules <= 0 {
		t.Fatal("one excursion must cost energy")
	}
}

func TestMeasureAllElectronicPath(t *testing.T) {
	topo, path, _ := pathTopo(t)
	s, _ := NewSimulator(topo, DefaultConfig())
	// vm1 pm1 tor1: an electronic-only walk never converts.
	pf, err := s.Measure(Spec{Walk: walk(t, topo, path[:3]), Bytes: 100})
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if pf.BoundaryCrossings != 0 || pf.OEOConversions != 0 {
		t.Fatalf("electronic path: crossings=%d conversions=%d", pf.BoundaryCrossings, pf.OEOConversions)
	}
}

func TestMeasureVNFDelay(t *testing.T) {
	topo, path, _ := pathTopo(t)
	w := walk(t, topo, path)
	cfg := DefaultConfig()
	cfg.VNFDelayUs = map[topology.NodeID]float64{path[3]: 100} // VNF on ops1
	s, _ := NewSimulator(topo, cfg)
	base, _ := NewSimulator(topo, DefaultConfig())
	withVNF, err := s.Measure(Spec{Walk: w, Bytes: 100})
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	plain, err := base.Measure(Spec{Walk: w, Bytes: 100})
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if diff := withVNF.LatencyUs - plain.LatencyUs; math.Abs(diff-100) > 1e-9 {
		t.Fatalf("VNF delay contribution = %f, want 100", diff)
	}
}

func TestMeasureValidation(t *testing.T) {
	topo, path, _ := pathTopo(t)
	s, _ := NewSimulator(topo, DefaultConfig())
	if _, err := s.Measure(Spec{Bytes: 1}); err == nil {
		t.Fatal("empty walk accepted")
	}
	if _, err := s.Measure(Spec{Walk: walk(t, topo, path), Bytes: 0}); err == nil {
		t.Fatal("zero bytes accepted")
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	topo, _, _ := pathTopo(t)
	if _, err := NewSimulator(nil, DefaultConfig()); err == nil {
		t.Fatal("nil topology accepted")
	}
	bad := DefaultConfig()
	bad.ConversionDelayUs = -1
	if _, err := NewSimulator(topo, bad); err == nil {
		t.Fatal("negative delay accepted")
	}
}

func TestRunBatchAggregates(t *testing.T) {
	topo, path, _ := pathTopo(t)
	s, _ := NewSimulator(topo, DefaultConfig())
	w := walk(t, topo, path)
	specs := []Spec{
		{Walk: w, Bytes: 1000},
		{Walk: w, Bytes: 2000},
		{Walk: w, Bytes: 3000},
	}
	res, err := s.RunBatch(specs)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if res.Flows != 3 || res.TotalBytes != 6000 {
		t.Fatalf("aggregate = %+v", res)
	}
	if res.MeanHops != float64(len(path)-1) {
		t.Fatalf("mean hops = %f", res.MeanHops)
	}
	if _, err := s.RunBatch([]Spec{{Walk: w, Bytes: -1}}); err == nil {
		t.Fatal("bad flow accepted in batch")
	}
}
