package orch

import (
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/nfv"
	"github.com/alvc/alvc/internal/topology"
)

func TestRepairRebuildsChain(t *testing.T) {
	s, o := newOrch(t)
	dep, err := s.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if _, err := s.Apply(dep.ID, ChangeRebuild()); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	got := s.Deployment(dep.ID)
	if got.State != StateActive {
		t.Fatalf("state = %s, want active", got.State)
	}
	if got.Repairs != 1 {
		t.Fatalf("repairs = %d, want 1", got.Repairs)
	}
	// Rebuilt resources are live: rules installed, instances active.
	rules := o.ctrl.RulesForFlow(got.FlowKey())
	if len(rules) != len(got.Path) {
		t.Fatalf("rules = %d, want %d", len(rules), len(got.Path))
	}
	for _, id := range got.Instances {
		if inst := o.mgr.Instance(id); inst.State != nfv.StateActive {
			t.Fatalf("instance %d state = %s", id, inst.State)
		}
	}
	if !cluster.Disjoint(o.alloc.VCs()) || !o.slices.Disjoint() {
		t.Fatal("disjointness violated after repair")
	}
}

func TestHandleNodeFailureOPS(t *testing.T) {
	s, _ := newOrch(t)
	dep, err := s.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	// Fail one OPS of the deployment's slice.
	failed := dep.Slice.OPSs[0]
	reports, err := failNode(s, failed)
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	repaired := RepairedIDs(reports)
	if len(repaired) != 1 || repaired[0] != dep.ID {
		t.Fatalf("repaired = %v, want [%d]", repaired, dep.ID)
	}
	got := s.Deployment(dep.ID)
	if got.State != StateActive || got.Repairs != 1 {
		t.Fatalf("after failure: state=%s repairs=%d", got.State, got.Repairs)
	}
	// The failed OPS must not appear in the rebuilt slice or path.
	if got.Slice.Contains(failed) {
		t.Fatalf("failed OPS %d still in slice", failed)
	}
	for _, n := range got.Path {
		if n == failed {
			t.Fatalf("failed OPS %d still on path %v", failed, got.Path)
		}
	}
	for _, h := range got.Placement.Hosts {
		if h == failed {
			t.Fatalf("failed OPS %d still hosts a VNF", failed)
		}
	}
}

func TestHandleNodeFailureVNFHostPM(t *testing.T) {
	s, _ := newOrch(t)
	dep, err := s.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	// Fail the PM hosting the electronic VNF (DPI).
	var pmHost topology.NodeID
	for i, d := range dep.Placement.Domains {
		if d == topology.DomainElectronic {
			pmHost = dep.Placement.Hosts[i]
			break
		}
	}
	if pmHost == 0 {
		t.Skip("no electronic VNF in this placement")
	}
	reports, err := failNode(s, pmHost)
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if repaired := RepairedIDs(reports); len(repaired) != 1 {
		t.Fatalf("repaired = %v", repaired)
	}
	got := s.Deployment(dep.ID)
	for _, h := range got.Placement.Hosts {
		if h == pmHost {
			t.Fatalf("failed PM %d still hosts a VNF", pmHost)
		}
	}
}

func TestHandleNodeFailureUntouchedDeploymentsUnaffected(t *testing.T) {
	s, _ := newOrch(t)
	d1, err := s.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision 1: %v", err)
	}
	spec2, err := chain.Linear("chain-2", "tenant-b", "mapreduce", 1, 1<<20, "firewall", "wanopt")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	d2, err := s.Provision(bg, spec2)
	if err != nil {
		t.Fatalf("Provision 2: %v", err)
	}
	// Fail an OPS belonging only to d1's slice and not on d2's path.
	var target topology.NodeID
	d2Nodes := map[topology.NodeID]bool{}
	for _, n := range d2.Path {
		d2Nodes[n] = true
	}
	for _, ops := range d1.Slice.OPSs {
		if !d2Nodes[ops] {
			target = ops
			break
		}
	}
	if target == 0 {
		t.Skip("no exclusive OPS found")
	}
	reports, err := failNode(s, target)
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	for _, id := range RepairedIDs(reports) {
		if id == d2.ID {
			t.Fatal("unaffected deployment was repaired")
		}
	}
	if got := s.Deployment(d2.ID); got.Repairs != 0 {
		t.Fatal("unaffected deployment gained repairs")
	}
}

func TestHandleNodeFailureUnknownNode(t *testing.T) {
	s, _ := newOrch(t)
	if _, err := failNode(s, 99999); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestRepairNonActive(t *testing.T) {
	s, _ := newOrch(t)
	dep, err := s.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if _, err := s.Delete(bg, dep.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Apply(dep.ID, ChangeRebuild()); err == nil {
		t.Fatal("repair of deleted deployment accepted")
	}
}

func TestProvisionWithWDM(t *testing.T) {
	s, o := newTestOrch(t, Config{Topo: orchTopo(t), Wavelengths: 8})
	dep, err := s.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if dep.Lambda < 0 {
		t.Fatalf("lambda = %d, want assigned", dep.Lambda)
	}
	if a, ok := o.wdm.AssignmentOf(dep.FlowKey()); !ok || a.Lambda != dep.Lambda {
		t.Fatalf("WDM assignment missing or mismatched: %+v %v", a, ok)
	}
	// Delete releases the wavelength.
	if _, err := s.Delete(bg, dep.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok := o.wdm.AssignmentOf(dep.FlowKey()); ok {
		t.Fatal("wavelength not released on delete")
	}
}

func TestWDMDisabledLambdaMinusOne(t *testing.T) {
	s, o := newOrch(t)
	dep, err := s.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if dep.Lambda != -1 {
		t.Fatalf("lambda = %d, want -1 with WDM disabled", dep.Lambda)
	}
	if o.wdm != nil {
		t.Fatal("WDM should be nil when disabled")
	}
}

func TestWDMBlockingRollsBack(t *testing.T) {
	// Capacity 1: two chains of the same service share boundary links
	// (same ToRs), so the second must block and roll back cleanly.
	s, o := newTestOrch(t, Config{Topo: orchTopo(t), Wavelengths: 1})
	d1, err := s.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision 1: %v", err)
	}
	availBefore := len(o.alloc.AvailableOPS())
	rulesBefore := o.ctrl.RuleCount()
	_, err = s.Provision(bg, webSpec(t, "chain-2"))
	if err == nil {
		// Paths may be disjoint on this topology; nothing to assert.
		t.Skip("second chain found disjoint optical links")
	}
	if got := len(o.alloc.AvailableOPS()); got != availBefore {
		t.Fatalf("OPS leaked on WDM block: %d -> %d", availBefore, got)
	}
	if got := o.ctrl.RuleCount(); got != rulesBefore {
		t.Fatalf("rules leaked on WDM block: %d -> %d", rulesBefore, got)
	}
	_ = d1
}
