package orch

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/topology"
)

// benchFleetTopo is the repository benchmark's data center
// (benchmark/fleet.go): four racks of two PMs, every PM dual-homed and
// every ToR wired to every OPS, so each chain claims one exclusive slice
// OPS and a disjoint standby always exists.
func benchFleetTopo(t testing.TB, ops int) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Racks = 4
	cfg.PMsPerRack = 2
	cfg.VMsPerPM = 2
	cfg.OPSCount = ops
	cfg.ToRUplinks = ops
	cfg.OPSChords = 0
	cfg.DualHomeFrac = 1.0
	cfg.Services = []string{"web"}
	cfg.PMCapacity = topology.Resources{CPUCores: 1 << 20, MemoryGB: 1 << 20, StorageGB: 1 << 20}
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

// residentSpec is the benchmark's resident chain, one tenant per chain.
func residentSpec(t testing.TB, i int, tenant string) chain.Spec {
	t.Helper()
	spec, err := chain.Linear(fmt.Sprintf("c%d", i), tenant, "web", 1, 1<<20, "firewall", "nat")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	return spec
}

// maxStandbysPerTransitLink is the most standbys any one ToR↔OPS link
// may carry in the fleets below (measured: 1). A standby that can stay
// on its chain's own slice OPS does; the ones that must leave the slice
// are rotated over the spare OPSs by the chain's spread key, so no spare
// link collects them. The k-shortest planner put 51 and 20 on one link
// in these two fleets, and a lowest-ID tie-break ~19 per shard: one cut
// of that link then costs all of them their protection.
const maxStandbysPerTransitLink = 2

// checkStandbyFleet asserts every chain has a disjoint standby and that
// the standbys are spread over the fabric's transit links.
func checkStandbyFleet(t *testing.T, topo *topology.Topology, deps []*Deployment, want int) {
	t.Helper()
	if len(deps) != want {
		t.Fatalf("fleet has %d chains, want %d", len(deps), want)
	}
	disjoint := 0
	load := make(map[topology.LinkID]int)
	for _, dep := range deps {
		if dep.Standby != nil && dep.Standby.Disjoint {
			disjoint++
		}
		if dep.Standby == nil {
			continue
		}
		for _, l := range dep.Standby.Links {
			if topo.Link(l).Kind == topology.LinkBoundary {
				load[l]++
			}
		}
	}
	if disjoint != want {
		t.Errorf("%d of %d chains have a disjoint standby, want all", disjoint, want)
	}
	worst, worstLink := 0, topology.LinkID(0)
	for l, n := range load {
		if n > worst || (n == worst && l < worstLink) {
			worst, worstLink = n, l
		}
	}
	if worst > maxStandbysPerTransitLink {
		t.Errorf("transit link %d carries %d standbys, want at most %d", worstLink, worst, maxStandbysPerTransitLink)
	}
}

// TestStandbyFleetAllDisjoint: 200 chains on the 300-OPS bench fleet
// all get a disjoint standby. The k-shortest planner protected 150: once
// half the pool was claimed its four shortest alternatives all left
// through the primary's first ToR link.
func TestStandbyFleetAllDisjoint(t *testing.T) {
	topo := benchFleetTopo(t, 300)
	s, o := newTestOrch(t, Config{Topo: topo})
	for i := 0; i < 200; i++ {
		if _, err := s.Provision(bg, residentSpec(t, i, fmt.Sprintf("t%d", i))); err != nil {
			t.Fatalf("Provision %d: %v", i, err)
		}
	}
	checkStandbyFleet(t, topo, s.Deployments(), 200)
	if bad := auditIndexes(o); len(bad) > 0 {
		t.Fatalf("%d index differences, first: %s", len(bad), bad[0])
	}

	// Same chain, same standby: planning is deterministic, memo or not.
	dep := s.Deployments()[117]
	for _, memo := range []bool{true, false, true} {
		o.ctrl.SetAlternativesCache(memo)
		p := o.pipelineFrom(context.Background(), o.deployments[dep.ID])
		if _, err := p.planStandby(nil); err != nil {
			t.Fatalf("replan (memo %v): %v", memo, err)
		}
		if !slices.Equal(p.standby.Path, dep.Standby.Path) {
			t.Fatalf("replan (memo %v) = %v, provisioned standby %v", memo, p.standby.Path, dep.Standby.Path)
		}
	}
}

// TestShardedStandbyFleetAllDisjoint: the storm fleet — 160 chains
// spread evenly over 4 shards of a 168-OPS pool — is fully protected at
// provision time (the k-shortest planner: 84 of 160), without the
// standbys that leave their shard's pool piling onto one spare link.
func TestShardedStandbyFleetAllDisjoint(t *testing.T) {
	topo := benchFleetTopo(t, 168)
	s := newTestSet(t, Config{Topo: topo}, 4)
	router := NewShardRouter(4, ShardByTenant)
	for i, salt := 0, 0; i < 160; i++ {
		spec := residentSpec(t, i, fmt.Sprintf("t%d", salt))
		for router.ShardForSpec(spec) != i%4 {
			salt++
			spec.Tenant = fmt.Sprintf("t%d", salt)
		}
		salt++
		if _, err := s.Provision(bg, spec); err != nil {
			t.Fatalf("Provision %d: %v", i, err)
		}
	}
	checkStandbyFleet(t, topo, s.Deployments(), 160)
	for i := 0; i < 4; i++ {
		if bad := auditIndexes(s.shards[i]); len(bad) > 0 {
			t.Fatalf("shard %d: %d index differences, first: %s", i, len(bad), bad[0])
		}
	}
}

// sameSet reports whether two duplicate-free lists hold the same
// elements.
func sameSet[T ~int](a, b []T) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestAsyncRestandbyReindexesOnlyTheStandby: with re-protection
// deferred, a cut that crosses only standbys drops each of them by
// taking out of the reverse indexes what the standby alone put there.
// Afterwards the indexes must equal the footprints recomputed from
// scratch — entries the standby shared with the primary, the hosts or
// the slice still there, the rest gone.
func TestAsyncRestandbyReindexesOnlyTheStandby(t *testing.T) {
	topo := benchFleetTopo(t, 60)
	s, o := newTestOrch(t, Config{Topo: topo, DeferReprotect: true})
	for i := 0; i < 40; i++ {
		if _, err := s.Provision(bg, residentSpec(t, i, fmt.Sprintf("t%d", i))); err != nil {
			t.Fatalf("Provision %d: %v", i, err)
		}
	}
	// Links that carry a standby and no primary, in ID order.
	primary := make(map[topology.LinkID]bool)
	var cut []topology.LinkID
	for _, dep := range s.Deployments() {
		links, ok := topo.AppendPathLinks(nil, dep.Path)
		if !ok {
			t.Fatalf("a hop of %v joins no link", dep.Path)
		}
		for _, l := range links {
			primary[l] = true
		}
	}
	for _, dep := range s.Deployments() {
		for _, l := range dep.Standby.Links {
			if !primary[l] && !slices.Contains(cut, l) {
				cut = append(cut, l)
			}
		}
	}
	slices.Sort(cut)
	if len(cut) < 8 {
		t.Fatalf("only %d standby-only links in the fleet", len(cut))
	}
	cut = cut[:8]
	reports, err := s.HandleFailures(bg, topology.NewFailures(nil, cut))
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if len(reports) == 0 {
		t.Fatal("no chain lost its standby to the cut")
	}
	for _, r := range reports {
		if r.Action != ActionRestandby || r.Err != nil {
			t.Fatalf("report %+v, want a clean restandby", r)
		}
		if dep := s.Deployment(r.ID); dep.Standby != nil {
			t.Fatalf("deployment %d kept its cut standby %v", r.ID, dep.Standby.Path)
		}
	}
	if bad := auditIndexes(o); len(bad) > 0 {
		t.Fatalf("after the restandbys: %d index differences, first: %s", len(bad), bad[0])
	}
	// The background pass restores them, and indexes them again.
	for _, r := range reports {
		if out := reProtect(s, r.ID); out.Err != nil || !out.Standby.Disjoint {
			t.Fatalf("re-protect %d: %+v", r.ID, out)
		}
	}
	if bad := auditIndexes(o); len(bad) > 0 {
		t.Fatalf("after the re-protects: %d index differences, first: %s", len(bad), bad[0])
	}
}
