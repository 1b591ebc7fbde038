package sdn

import (
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

// TestComputePathViaWarmAllocs: a warm in-slice route — a chain's
// endpoints and two VNF hosts under a one-OPS slice on the benchmark
// fleets' fabric — allocates its stops, one result per leg and the
// joined path, which is what it allocated when the restriction was a
// dense mask: laying the slice's arcs out allocates nothing once the
// snapshot's pooled restriction is warm.
func TestComputePathViaWarmAllocs(t *testing.T) {
	cfg := topology.DefaultGenConfig()
	cfg.Racks, cfg.PMsPerRack, cfg.VMsPerPM = 4, 2, 2
	cfg.OPSCount, cfg.ToRUplinks, cfg.OPSChords = 300, 300, 0
	cfg.DualHomeFrac = 1
	cfg.Services = []string{"web"}
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	c, _ := NewController(topo)
	vms := topo.NodeIDs(topology.KindVM)
	pms := topo.NodeIDs(topology.KindPhysicalMachine)
	slice := topology.NodeSet{topo.NodeIDs(topology.KindOPS)[150]}
	via := []topology.NodeID{pms[1], pms[6]}
	route := func() {
		path, err := c.ComputePathVia(vms[0], via, vms[len(vms)-1], slice)
		if err != nil || len(path) < 8 {
			t.Fatalf("ComputePathVia = %v, %v; want a route through both hosts", path, err)
		}
	}
	route()
	if raceEnabled {
		return // pooled scratch is dropped at random under -race
	}
	if allocs := testing.AllocsPerRun(100, route); allocs > 10 {
		t.Fatalf("warm ComputePathVia allocates %.0f times, want at most the 10 it did under the dense mask", allocs)
	}
}
