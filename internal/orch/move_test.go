package orch

import (
	"fmt"
	"testing"

	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/topology"
)

// TestMoveNFIntoOpticalSavesConversions reproduces Fig. 8's narrative
// as an online operation: a chain deployed all-electronic drops one
// conversion each time a light VNF is moved into an optoelectronic
// router.
func TestMoveNFIntoOpticalSavesConversions(t *testing.T) {
	s, o := newTestOrch(t, Config{Topo: orchTopo(t), Policy: placement.AllElectronic{}})
	dep, err := s.Provision(bg, webSpec(t, "chain-1")) // firewall, lb, dpi
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if dep.Placement.Conversions != 3 {
		t.Fatalf("all-electronic conversions = %d, want 3", dep.Placement.Conversions)
	}
	// Find an optoelectronic router in the slice with capacity.
	var oer topology.NodeID
	for _, ops := range dep.Slice.OPSs {
		if n := o.topo.Node(ops); n != nil && n.Optoelectronic {
			oer = ops
			break
		}
	}
	if oer == 0 {
		t.Skip("AL has no optoelectronic router on this seed")
	}
	// Move the firewall (index 0, light) into the optical domain.
	if _, err := s.Apply(dep.ID, ChangeHost(0, oer)); err != nil {
		t.Fatalf("move: %v", err)
	}
	after := s.Deployment(dep.ID)
	if after.Placement.Conversions != 2 {
		t.Fatalf("conversions after move = %d, want 2", after.Placement.Conversions)
	}
	if after.Placement.Domains[0] != topology.DomainOptical {
		t.Fatalf("domain after move = %s", after.Placement.Domains[0])
	}
	if after.Placement.Hosts[0] != oer {
		t.Fatalf("host after move = %d, want %d", after.Placement.Hosts[0], oer)
	}
	// Rules were re-provisioned along the new path.
	rules := o.ctrl.RulesForFlow(after.FlowKey())
	if len(rules) != len(after.Path) {
		t.Fatalf("rules = %d, want %d", len(rules), len(after.Path))
	}
	visits := false
	for _, n := range after.Path {
		if n == oer {
			visits = true
		}
	}
	if !visits {
		t.Fatalf("new path %v does not visit the new host %d", after.Path, oer)
	}
	// Instance accounting followed.
	inst := o.mgr.Instance(after.Instances[0])
	if inst.Host != oer || inst.Domain != topology.DomainOptical {
		t.Fatalf("instance after move: %+v", inst)
	}
}

func TestMoveNFValidation(t *testing.T) {
	s, _ := newOrch(t)
	dep, err := s.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if _, err := s.Apply(dep.ID, ChangeHost(99, 1)); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := s.Apply(999, ChangeHost(0, 1)); err == nil {
		t.Fatal("unknown deployment accepted")
	}
	if _, err := s.Apply(dep.ID, ChangeHost(0, 99999)); err == nil {
		t.Fatal("unknown destination accepted")
	}
}

// TestMoveAllocations holds a ChangeHost move — operate_mix's primary
// operation below the HTTP layer — to an allocation ceiling, with and
// without WDM: NF 0 ping-pongs between the first server and one homed to
// the same ToRs, as the benchmark's move hosts do; -v logs the counts (6
// and 11, where the re-planned standby, a route of thirteen nodes or
// more, cost its record and two arrays before it became one block: 8
// and 13).
func TestMoveAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of pooled code are not exact under the race detector")
	}
	for _, tc := range []struct {
		wavelengths int
		ceiling     float64
	}{{0, 7.5}, {8, 12.5}} {
		s, o := newTestOrch(t, Config{Topo: orchTopo(t), Wavelengths: tc.wavelengths})
		dep, err := s.Provision(bg, webSpec(t, "chain-1"))
		if err != nil {
			t.Fatalf("Provision: %v", err)
		}
		pms := o.topo.NodeIDs(topology.KindPhysicalMachine)
		hosts := [2]topology.NodeID{pms[0], pms[len(pms)-1]}
		for _, pm := range pms[1:] {
			if fmt.Sprint(o.topo.ToRsOfPM(pm)) == fmt.Sprint(o.topo.ToRsOfPM(pms[0])) {
				hosts[1] = pm
				break
			}
		}
		move := func(to topology.NodeID) {
			if _, err := s.Apply(dep.ID, ChangeHost(0, to)); err != nil {
				t.Fatalf("move to %d: %v", to, err)
			}
		}
		move(hosts[0])
		move(hosts[1])
		allocs := testing.AllocsPerRun(100, func() { move(hosts[0]); move(hosts[1]) }) / 2
		t.Logf("wavelengths %d: %.1f allocations a move (ceiling %.1f)", tc.wavelengths, allocs, tc.ceiling)
		if allocs > tc.ceiling {
			t.Errorf("wavelengths %d: a move allocates %.1f times, above the ceiling %.1f", tc.wavelengths, allocs, tc.ceiling)
		}
	}
}
