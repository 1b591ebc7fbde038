package orch

import (
	"strings"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/nfv"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/sdn"
	"github.com/alvc/alvc/internal/topology"
)

// orchTopo generates a topology with enough OPS headroom for several
// disjoint ALs.
func orchTopo(t *testing.T) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Racks = 6
	cfg.OPSCount = 18
	cfg.ToRUplinks = 12
	cfg.OPSChords = 2
	cfg.OptoFrac = 0.6
	cfg.Services = []string{"web", "mapreduce", "sns"}
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

func newOrch(t *testing.T) (*Sharded, *shard) {
	t.Helper()
	return newTestOrch(t, Config{Topo: orchTopo(t)})
}

func webSpec(t *testing.T, name string) chain.Spec {
	t.Helper()
	s, err := chain.Linear(name, "tenant-a", "web", 2, 1<<20, "firewall", "lb", "dpi")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	return s
}

func TestProvisionEndToEnd(t *testing.T) {
	s, o := newOrch(t)
	dep, err := s.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if dep.State != StateActive || dep.Version != 1 {
		t.Fatalf("deployment = %+v", dep)
	}
	// One VC, one slice, VNFs active, rules installed.
	if dep.VC == nil || dep.Slice == nil {
		t.Fatal("missing VC or slice")
	}
	if len(dep.Instances) != 3 {
		t.Fatalf("instances = %d, want 3", len(dep.Instances))
	}
	for _, id := range dep.Instances {
		inst := o.mgr.Instance(id)
		if inst == nil || inst.State != nfv.StateActive {
			t.Fatalf("instance %d not active: %+v", id, inst)
		}
	}
	if len(dep.Path) < 2 {
		t.Fatalf("path too short: %v", dep.Path)
	}
	rules := o.ctrl.RulesForFlow(dep.FlowKey())
	if len(rules) != len(dep.Path) {
		t.Fatalf("rules = %d, want %d (one per hop)", len(rules), len(dep.Path))
	}
	// The path visits every VNF host in order (consecutive duplicate
	// hosts are one stop: two VNFs on the same node share a visit).
	var stops []topology.NodeID
	for _, h := range dep.Placement.Hosts {
		if len(stops) == 0 || stops[len(stops)-1] != h {
			stops = append(stops, h)
		}
	}
	hostIdx := 0
	for _, n := range dep.Path {
		if hostIdx < len(stops) && n == stops[hostIdx] {
			hostIdx++
		}
	}
	if hostIdx != len(stops) {
		t.Fatalf("path %v does not visit hosts %v in order", dep.Path, stops)
	}
	// The record counts the excursions the chain's walk pays.
	w, err := o.ctrl.Walk(dep.FlowKey())
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if got := sdn.Excursions(w.OE, w.EO); dep.Conversions != got {
		t.Fatalf("conversions = %d, the walk pays %d", dep.Conversions, got)
	}
	if dep.Conversions > 0 && dep.EnergyJoules <= 0 {
		t.Fatal("energy should be positive with conversions")
	}
}

func TestProvisionOneVCPerNFC(t *testing.T) {
	s, o := newOrch(t)
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
	if d1.VC.ID == d2.VC.ID {
		t.Fatal("two NFCs share a VC")
	}
	if d1.Slice.ID == d2.Slice.ID {
		t.Fatal("two NFCs share a slice")
	}
	// ALs disjoint (the paper's rule).
	set1 := d1.VC.AL.OPSSet()
	for _, ops := range d2.VC.AL.OPSs {
		if set1.Has(ops) {
			t.Fatalf("OPS %d in both ALs", ops)
		}
	}
	if !cluster.Disjoint(o.alloc.VCs()) || !o.slices.Disjoint() {
		t.Fatal("disjointness invariants violated")
	}
	if activeCount(s) != 2 {
		t.Fatalf("active = %d, want 2", activeCount(s))
	}
}

func TestProvisionValidation(t *testing.T) {
	s, _ := newOrch(t)
	if _, err := s.Provision(bg, chain.Spec{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	spec := webSpec(t, "x")
	spec.Service = "nonexistent"
	if _, err := s.Provision(bg, spec); err == nil || !strings.Contains(err.Error(), "no live VMs") {
		t.Fatalf("unknown service error = %v", err)
	}
	spec = webSpec(t, "y")
	spec.NFs = []chain.NFRef{{Name: "bogus"}}
	if _, err := s.Provision(bg, spec); err == nil {
		t.Fatal("unknown NF accepted")
	}
}

func TestProvisionRollbackLeavesNoState(t *testing.T) {
	s, o := newOrch(t)
	availBefore := len(o.alloc.AvailableOPS())
	rulesBefore := o.ctrl.RuleCount()
	// Unknown NF fails after the VC and slice are allocated — rollback
	// must free everything.
	spec := webSpec(t, "doomed")
	spec.NFs = append(spec.NFs, chain.NFRef{Name: "bogus"})
	if _, err := s.Provision(bg, spec); err == nil {
		t.Fatal("expected failure")
	}
	if got := len(o.alloc.AvailableOPS()); got != availBefore {
		t.Fatalf("OPS leaked: %d -> %d", availBefore, got)
	}
	if got := o.ctrl.RuleCount(); got != rulesBefore {
		t.Fatalf("rules leaked: %d -> %d", rulesBefore, got)
	}
	if len(o.slices.Slices()) != 0 {
		t.Fatal("slices leaked")
	}
	if activeCount(s) != 0 {
		t.Fatal("deployments leaked")
	}
	// Instance resources all freed, and the manager forgot them.
	if left := o.mgr.Instances(); len(left) != 0 {
		t.Fatalf("%d instances leaked, first %+v", len(left), left[0])
	}
}

func TestModifyUpgradeScale(t *testing.T) {
	s, o := newOrch(t)
	dep, err := s.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if _, err := s.Apply(dep.ID, ChangeBandwidth(8)); err != nil {
		t.Fatalf("modify: %v", err)
	}
	got := s.Deployment(dep.ID)
	if got.Spec.BandwidthGbps != 8 {
		t.Fatalf("bandwidth = %f, want 8", got.Spec.BandwidthGbps)
	}
	for _, sl := range o.slices.Slices() {
		if sl.ID == dep.Slice.ID && sl.BandwidthGbps != 8 {
			t.Fatal("slice bandwidth not updated")
		}
	}
	if _, err := s.Apply(dep.ID, ChangeBandwidth(-1)); err == nil {
		t.Fatal("negative bandwidth accepted")
	}

	if _, err := s.Apply(dep.ID, ChangeVersion()); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	if got := s.Deployment(dep.ID); got.Version != 2 {
		t.Fatalf("version = %d, want 2", got.Version)
	}
	for _, id := range dep.Instances {
		if inst := o.mgr.Instance(id); inst.Version != 2 {
			t.Fatalf("instance %d version = %d, want 2", id, inst.Version)
		}
	}

	// Scale the DPI stage (index 2): it lives on a PM with headroom.
	// Scaling an OER-hosted VNF beyond the router's limited capacity
	// must fail — that limit is the §IV-D constraint.
	if _, err := s.Apply(dep.ID, ChangeReplicas(2, 3)); err != nil {
		t.Fatalf("scale: %v", err)
	}
	if inst := o.mgr.Instance(dep.Instances[2]); inst.Replicas != 3 {
		t.Fatalf("replicas = %d, want 3", inst.Replicas)
	}
	if _, err := s.Apply(dep.ID, ChangeReplicas(0, 50)); err == nil {
		t.Fatal("scaling an OER-hosted VNF past router capacity accepted")
	}
	if _, err := s.Apply(dep.ID, ChangeReplicas(99, 2)); err == nil {
		t.Fatal("out-of-range NF index accepted")
	}
}

func TestDeleteReleasesEverything(t *testing.T) {
	s, o := newOrch(t)
	availBefore := len(o.alloc.AvailableOPS())
	dep, err := s.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if _, err := s.Delete(bg, dep.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if got := s.Deployment(dep.ID); got != nil {
		t.Fatalf("deleted deployment still has a record in state %s", got.State)
	}
	if ts, ok := s.Tombstone(dep.ID); !ok || ts.Name != dep.Spec.Name || ts.Tenant != dep.Spec.Tenant {
		t.Fatalf("tombstone = %+v, %v", ts, ok)
	}
	if got := len(o.alloc.AvailableOPS()); got != availBefore {
		t.Fatalf("OPSs not released: %d -> %d", availBefore, got)
	}
	if got := len(o.ctrl.RulesForFlow(dep.FlowKey())); got != 0 {
		t.Fatalf("rules remain: %d", got)
	}
	for _, id := range dep.Instances {
		if inst := o.mgr.Instance(id); inst != nil {
			t.Fatalf("instance %d not terminated: %+v", id, inst)
		}
	}
	// Operations on a deleted deployment fail.
	if _, err := s.Delete(bg, dep.ID); err == nil {
		t.Fatal("double delete accepted")
	}
	if _, err := s.Apply(dep.ID, ChangeVersion()); err == nil {
		t.Fatal("upgrade of deleted deployment accepted")
	}
	if _, err := s.Apply(dep.ID, ChangeBandwidth(4)); err == nil {
		t.Fatal("modify of deleted deployment accepted")
	}
	// Resources are reusable: provision again.
	if _, err := s.Provision(bg, webSpec(t, "chain-2")); err != nil {
		t.Fatalf("re-provision after delete: %v", err)
	}
}

func TestUnknownDeploymentOps(t *testing.T) {
	s, _ := newOrch(t)
	if _, err := s.Delete(bg, 42); err == nil {
		t.Fatal("delete unknown accepted")
	}
	if s.Deployment(42) != nil {
		t.Fatal("unknown deployment returned")
	}
}

func TestProvisionLifecycleStorm(t *testing.T) {
	// E6-style storm: repeated provision/modify/upgrade/delete cycles
	// must leave the orchestrator consistent.
	s, o := newOrch(t)
	for round := 0; round < 5; round++ {
		var ids []DeploymentID
		for i, svc := range []string{"web", "mapreduce", "sns"} {
			nfs := [][]string{
				{"firewall", "lb"},
				{"secgw", "wanopt"},
				{"firewall", "dpi"},
			}[i]
			spec, err := chain.Linear("storm", "tenant", svc, 1, 1<<20, nfs...)
			if err != nil {
				t.Fatalf("Linear: %v", err)
			}
			spec.Name = spec.Name + "-" + svc
			dep, err := s.Provision(bg, spec)
			if err != nil {
				t.Fatalf("round %d provision %s: %v", round, svc, err)
			}
			ids = append(ids, dep.ID)
		}
		if !cluster.Disjoint(o.alloc.VCs()) || !o.slices.Disjoint() {
			t.Fatalf("round %d: disjointness violated", round)
		}
		for _, id := range ids {
			if _, err := s.Apply(id, ChangeVersion()); err != nil {
				t.Fatalf("round %d upgrade: %v", round, err)
			}
			if _, err := s.Delete(bg, id); err != nil {
				t.Fatalf("round %d delete: %v", round, err)
			}
		}
		if activeCount(s) != 0 {
			t.Fatalf("round %d: %d deployments leak", round, activeCount(s))
		}
	}
}

func TestOrchestratorWithOptimalPolicy(t *testing.T) {
	s, _ := newTestOrch(t, Config{Topo: orchTopo(t), Policy: placement.Optimal{}})
	dep, err := s.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if dep.Placement.Policy != "optimal" {
		t.Fatalf("policy = %s", dep.Placement.Policy)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, 1, ShardByTenant); err == nil {
		t.Fatal("nil topology accepted")
	}
}

func TestDeploymentSnapshotIsolation(t *testing.T) {
	s, _ := newOrch(t)
	dep, err := s.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	dep.Path[0] = 9999
	dep.State = StateDeleted
	fresh := s.Deployment(dep.ID)
	if fresh.Path[0] == 9999 || fresh.State != StateActive {
		t.Fatal("mutating snapshot affected orchestrator state")
	}
}
