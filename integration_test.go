package alvc

import (
	"testing"

	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/topology"
)

// TestFullPaperStory walks the complete AL-VC narrative end to end:
// generate a hybrid DCN (§III-B), cluster by service (§III-A/C),
// orchestrate per-tenant chains (§IV-B/C), verify the O/E/O economics
// (§IV-D), inject a failure, repair, and measure flows — one scenario
// touching every subsystem.
func TestFullPaperStory(t *testing.T) {
	cfg := DefaultTopology()
	cfg.Racks = 8
	cfg.OPSCount = 24
	cfg.ToRUplinks = 16
	cfg.OPSChords = 2
	cfg.Services = []string{"web", "mapreduce", "sns"}

	arch, err := New(cfg, WithWavelengths(16))
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// §III: service clusters with minimal ALs.
	vcs, err := arch.Sharded().BuildServiceClusters()
	if err != nil {
		t.Fatalf("BuildServiceClusters: %v", err)
	}
	if len(vcs) != 3 {
		t.Fatalf("clusters = %d", len(vcs))
	}
	for _, vc := range vcs {
		if vc.AL.Size() == 0 {
			t.Fatalf("cluster %s has empty AL", vc.Service)
		}
		if err := arch.Sharded().ReleaseCluster(vc.ID); err != nil {
			t.Fatalf("ReleaseCluster: %v", err)
		}
	}

	// §IV: three tenants' chains.
	type tenantChain struct {
		tenant, service string
		nfs             []string
	}
	chains := []tenantChain{
		{"blue", "web", []string{"secgw", "firewall", "dpi"}},
		{"black", "mapreduce", []string{"firewall", "wanopt"}},
		{"green", "sns", []string{"secgw", "lb", "firewall"}},
	}
	var deps []*Deployment
	for _, c := range chains {
		spec, err := LinearChain(c.tenant+"-chain", c.tenant, c.service, 2, 1<<20, c.nfs...)
		if err != nil {
			t.Fatalf("LinearChain: %v", err)
		}
		dep, err := arch.Sharded().Provision(ctx, spec)
		if err != nil {
			t.Fatalf("Provision %s: %v", c.tenant, err)
		}
		deps = append(deps, dep)
	}
	s := arch.Summarize()
	if s.ActiveDeployments != 3 || s.Clusters != 3 {
		t.Fatalf("summary = %+v", s)
	}

	// §IV-D economics: the paper's greedy never pays more than
	// all-electronic would (count electronic VNFs as the baseline).
	for i, dep := range deps {
		baseline := len(dep.Placement.Domains) // all-electronic per-VNF cost
		if dep.Conversions > baseline {
			t.Fatalf("%s: conversions %d exceed all-electronic %d", chains[i].tenant, dep.Conversions, baseline)
		}
	}

	// Lifecycle: modify + upgrade + scale the blue chain.
	blue := deps[0]
	if _, err := arch.Sharded().Apply(blue.ID, ChangeBandwidth(8)); err != nil {
		t.Fatalf("modify: %v", err)
	}
	if _, err := arch.Sharded().Apply(blue.ID, ChangeVersion()); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	for i, d := range blue.Placement.Domains {
		if d == topology.DomainElectronic {
			if _, err := arch.Sharded().Apply(blue.ID, ChangeReplicas(i, 2)); err != nil {
				t.Fatalf("scale: %v", err)
			}
			break
		}
	}

	// Failure: kill an OPS in blue's slice; repair must succeed and
	// green/black must stay active.
	victim := blue.Slice.OPSs[0]
	reports, err := arch.Sharded().HandleFailures(ctx, NewFailures([]NodeID{victim}, nil))
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if len(orch.RepairedIDs(reports)) == 0 {
		t.Fatal("no deployment repaired")
	}
	for _, dep := range arch.Sharded().Deployments() {
		if dep.State != orch.StateActive {
			t.Fatalf("deployment %d not active after repair: %s", dep.ID, dep.State)
		}
	}
	if arch.Deployment(blue.ID).Slice.Contains(victim) {
		t.Fatal("repaired chain still uses the failed OPS")
	}

	// Flows: measure through the repaired chain; rule counters move.
	res, err := arch.MeasureDeployment(blue.ID, 200)
	if err != nil {
		t.Fatalf("MeasureDeployment: %v", err)
	}
	if res.Flows != 200 || res.MeanHops == 0 {
		t.Fatalf("flow result = %+v", res)
	}
	var hits int64
	for _, r := range arch.Sharded().ControllerOf(blue.ID).RulesForFlow(arch.Deployment(blue.ID).FlowKey()) {
		hits += r.Hits
	}
	if hits == 0 {
		t.Fatal("flow-table counters did not move")
	}

	// Teardown: everything releases.
	for _, dep := range deps {
		if _, err := arch.Sharded().Delete(ctx, dep.ID); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	final := arch.Summarize()
	if final.ActiveDeployments != 0 || final.Clusters != 0 {
		t.Fatalf("leaks after teardown: %+v", final)
	}
	if !cluster.Disjoint(arch.Sharded().Clusters()) || !arch.Sharded().Slices().Disjoint() {
		t.Fatal("disjointness violated at the end")
	}
}

// TestMoveNFThroughFacade exercises the online Fig. 8 optimization via
// the public API.
func TestMoveNFThroughFacade(t *testing.T) {
	arch, err := New(archConfig(), WithPolicy(AllElectronic{}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec, err := LinearChain("c", "t", "web", 1, 1<<20, "firewall", "lb")
	if err != nil {
		t.Fatalf("LinearChain: %v", err)
	}
	dep, err := arch.Sharded().Provision(ctx, spec)
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	before := dep.Placement.Conversions
	var oer NodeID
	for _, ops := range dep.Slice.OPSs {
		if n := arch.Topology().Node(ops); n != nil && n.Optoelectronic {
			oer = ops
			break
		}
	}
	if oer == 0 {
		t.Skip("no optoelectronic router in this AL")
	}
	if _, err := arch.Sharded().Apply(dep.ID, ChangeHost(0, oer)); err != nil {
		t.Fatalf("move: %v", err)
	}
	after := arch.Deployment(dep.ID)
	if after.Placement.Conversions != before-1 {
		t.Fatalf("conversions %d -> %d, want -1", before, after.Placement.Conversions)
	}
}
