package orch

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/topology"
)

// TestReProtectGroupExactlyOnceAndSorted: a group pass restores every
// dropped standby in one pass, reports outcomes in ascending ID order,
// and a second pass over the now-protected fleet plans nothing new.
func TestReProtectGroupExactlyOnceAndSorted(t *testing.T) {
	s, o := newTestOrch(t, Config{Topo: wideTopology(t, 16), DeferReprotect: true})
	var deps []*Deployment
	for _, spec := range batchSpecs(t, 6) {
		dep, err := s.Provision(bg, spec)
		if err != nil {
			t.Fatalf("Provision %q: %v", spec.Name, err)
		}
		deps = append(deps, dep)
	}
	// Kill every standby-only link in one deferred batch: each hit
	// chain drops protection and waits for background re-protection.
	s.UpdateHooks(func(h *Hooks) { h.Events = []EventSink{&recordingSink{}} })
	onPrimary := make(map[topology.LinkID]bool)
	for _, dep := range deps {
		for _, l := range pathLinkIDs(t, o, dep.Path) {
			onPrimary[l] = true
		}
	}
	var doomed []topology.LinkID
	seen := make(map[topology.LinkID]bool)
	for _, dep := range deps {
		if dep.Standby == nil {
			continue
		}
		for _, l := range pathLinkIDs(t, o, dep.Standby.Path) {
			if !onPrimary[l] && !seen[l] {
				seen[l] = true
				doomed = append(doomed, l)
			}
		}
	}
	if _, err := s.HandleFailures(bg, topology.NewFailures(nil, doomed)); err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	var dropped []DeploymentID
	for _, dep := range deps {
		if s.Deployment(dep.ID).Standby == nil {
			dropped = append(dropped, dep.ID)
		}
	}
	if len(dropped) < 2 {
		t.Fatalf("only %d chains lost protection; fixture too weak", len(dropped))
	}
	for _, l := range doomed {
		if err := s.Recover(topology.NewFailures(nil, []topology.LinkID{l})); err != nil {
			t.Fatalf("Recover: %v", err)
		}
	}

	// Members handed over in scrambled order; the outcomes must sort.
	members := make([]DeploymentID, 0, len(deps))
	for i := len(deps) - 1; i >= 0; i-- {
		members = append(members, deps[i].ID)
	}
	domain := FailureDomain{SRLGs: []int{9}}
	outs := s.ReProtectGroup(nil, domain, members)
	if len(outs) != len(deps) {
		t.Fatalf("outcomes = %+v, want %d", outs, len(deps))
	}
	if !sort.SliceIsSorted(outs, func(i, j int) bool { return outs[i].ID < outs[j].ID }) {
		t.Fatalf("outcomes out of order: %+v", outs)
	}
	replanned := 0
	for _, out := range outs {
		if out.Err != nil || out.Standby == nil {
			t.Fatalf("member %d outcome = %+v, want protection restored", out.ID, out)
		}
		if out.Fallback {
			t.Fatalf("member %d fell back on a one-shard fleet, whose pool is the fabric", out.ID)
		}
		if out.Replanned {
			replanned++
		}
		if got := s.Deployment(out.ID).Standby; got == nil {
			t.Fatalf("member %d left unindexed after group pass", out.ID)
		}
	}
	if replanned < len(dropped) {
		t.Fatalf("replanned %d members, want at least the %d dropped", replanned, len(dropped))
	}

	// Second pass: members holding a live disjoint standby are left
	// alone (a non-disjoint best-effort standby replans every pass by
	// design, so only the disjoint ones are asserted stable).
	disjoint := make(map[DeploymentID]bool)
	for _, out := range outs {
		if out.Standby.Disjoint {
			disjoint[out.ID] = true
		}
	}
	for _, out := range s.ReProtectGroup(nil, domain, members) {
		if out.Err != nil {
			t.Fatalf("second pass member %d failed: %v", out.ID, out.Err)
		}
		if disjoint[out.ID] && out.Replanned {
			t.Fatalf("already-protected member %d replanned: %+v", out.ID, out)
		}
	}
}

// pathLinkIDs resolves a path's physical links, skipping virtual VM
// hops.
func pathLinkIDs(t *testing.T, o *shard, path []topology.NodeID) []topology.LinkID {
	t.Helper()
	links, ok := o.topo.AppendPathLinks(nil, path)
	if !ok {
		t.Fatalf("a hop of %v joins no link", path)
	}
	return links
}

// TestReProtectGroupBusyMemberSkipped: a member owned by a concurrent
// exclusive operation is reported ErrBusy without blocking the rest of
// the group.
func TestReProtectGroupBusyMemberSkipped(t *testing.T) {
	s, o := newWideOrch(t, 16)
	var members []DeploymentID
	for _, spec := range batchSpecs(t, 3) {
		dep, err := s.Provision(bg, spec)
		if err != nil {
			t.Fatalf("Provision %q: %v", spec.Name, err)
		}
		members = append(members, dep.ID)
	}
	busyID := members[1]
	if _, err := o.beginExclusive(busyID); err != nil {
		t.Fatalf("beginExclusive: %v", err)
	}
	defer o.endExclusive(busyID)
	var busy, clean int
	for _, out := range s.ReProtectGroup(nil, FailureDomain{Batch: 1}, members) {
		switch {
		case out.ID == busyID:
			if !errors.Is(out.Err, ErrBusy) {
				t.Fatalf("busy member outcome = %+v, want ErrBusy", out)
			}
			busy++
		case out.Err != nil:
			t.Fatalf("member %d failed: %v", out.ID, out.Err)
		default:
			clean++
		}
	}
	if busy != 1 || clean != 2 {
		t.Fatalf("busy=%d clean=%d, want 1 busy, 2 clean", busy, clean)
	}
}

// TestReProtectGroupUnknownMember: a deleted or never-existing ID gets
// an error outcome; the rest of the group still completes.
func TestReProtectGroupUnknownMember(t *testing.T) {
	s, _, _ := triOrch(t, Config{})
	dep, err := s.Provision(bg, triSpec(t, "chain-0"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	outs := s.ReProtectGroup(nil, FailureDomain{SRLGs: []int{1}}, []DeploymentID{424242, dep.ID})
	if len(outs) != 2 {
		t.Fatalf("outcomes = %+v, want 2", outs)
	}
	if outs[0].ID != dep.ID || outs[0].Err != nil {
		t.Fatalf("known member outcome = %+v", outs[0])
	}
	if outs[1].Err == nil {
		t.Fatalf("phantom member succeeded: %+v", outs[1])
	}
}

// TestFailureDomainString: the one rendering of a failure domain, the
// /v1/watch field and the optimizer's group key.
func TestFailureDomainString(t *testing.T) {
	for _, tc := range []struct {
		domain FailureDomain
		want   string
	}{
		{FailureDomain{SRLGs: []int{7}}, "srlg:7"},
		{FailureDomain{SRLGs: []int{3, 7}}, "srlg:3+7"},
		{FailureDomain{SRLGs: []int{17, 2000, 3000}}, "srlg:17+2000+3000"},
		{FailureDomain{Batch: 4}, "batch:4"},
		{FailureDomain{}, ""},
	} {
		if got := tc.domain.String(); got != tc.want {
			t.Fatalf("%+v renders %q, want %q", tc.domain, got, tc.want)
		}
	}
}

// TestShardedReProtectGroupMergesShards: the sharded pass routes each
// member to its owner, appends the merged outcomes after what buf held,
// sorted, and every fallback an outcome reports is one the shards
// counted.
func TestShardedReProtectGroupMergesShards(t *testing.T) {
	topo := wideTopology(t, 16)
	s := newTestSet(t, Config{Topo: topo}, 4)
	var members []DeploymentID
	for _, spec := range batchSpecs(t, 8) {
		dep, err := s.Provision(bg, spec)
		if err != nil {
			t.Fatalf("Provision %q: %v", spec.Name, err)
		}
		members = append(members, dep.ID)
	}
	fallbacksBefore := standbyFallbacks(s)
	outs := s.ReProtectGroup([]GroupOutcome{{ID: -1}}, FailureDomain{SRLGs: []int{5}}, members)
	if len(outs) != 1+len(members) || outs[0].ID != -1 {
		t.Fatalf("outcomes = %+v, want buf's entry then %d", outs, len(members))
	}
	outs = outs[1:]
	if !sort.SliceIsSorted(outs, func(i, j int) bool { return outs[i].ID < outs[j].ID }) {
		t.Fatalf("merged outcomes out of order: %+v", outs)
	}
	fallbacks := 0
	for _, out := range outs {
		if out.Err != nil {
			t.Fatalf("member %d failed: %v", out.ID, out.Err)
		}
		if out.Fallback {
			fallbacks++
		}
	}
	if got := standbyFallbacks(s) - fallbacksBefore; got != int64(fallbacks) {
		t.Fatalf("shards counted %d fallbacks, the outcomes report %d", got, fallbacks)
	}
}

// equivalenceFleet is a seeded fleet for the group-of-one property:
// dual-homing varies with the seed so some chains have no disjoint
// standby, and a third of the ToR↔OPS links ride one of four trays.
func equivalenceFleet(t *testing.T, seed int64, shards int) *Sharded {
	t.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Seed = seed
	cfg.Racks, cfg.PMsPerRack, cfg.VMsPerPM = 4, 2, 2
	cfg.OPSCount, cfg.ToRUplinks, cfg.OPSChords = 24, 24, 0
	cfg.DualHomeFrac = float64(seed%3) / 2
	cfg.Services = []string{"web"}
	cfg.PMCapacity = topology.Resources{CPUCores: 1 << 20, MemoryGB: 1 << 20, StorageGB: 1 << 20}
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, l := range topo.Links() {
		if l.Kind == topology.LinkBoundary && rng.Intn(3) == 0 {
			if err := topo.SetLinkSRLG(l.ID, 1+rng.Intn(4)); err != nil {
				t.Fatalf("SetLinkSRLG: %v", err)
			}
		}
	}
	s := newTestSet(t, Config{Topo: topo}, shards)
	for _, spec := range batchSpecs(t, 12) {
		if _, err := s.Provision(bg, spec); err != nil {
			t.Fatalf("seed %d: Provision %q: %v", seed, spec.Name, err)
		}
	}
	return s
}

// TestReProtectGroupOfOneEqualsPlanStandby: over seeded fleets at 1 and
// 4 shards, a one-member ReProtectGroup with no domain re-plans a chain's
// dropped standby into exactly what resilience.PlanStandby gives under
// the pool-then-fabric rule — same path, same Disjoint, same SRLGs — and
// reports the fabric retry exactly when the rule takes one.
func TestReProtectGroupOfOneEqualsPlanStandby(t *testing.T) {
	for _, shards := range []int{1, 4} {
		fellBack := 0
		for seed := int64(1); seed <= 6; seed++ {
			s := equivalenceFleet(t, seed, shards)
			for _, dep := range s.Deployments() {
				o := s.owner(dep.ID)
				o.mu.Lock()
				live := o.deployments[dep.ID]
				o.mu.Unlock()
				stops, slice, pool := o.pipelineFrom(bg, live).appendStandbyStops(nil), live.Slice.OPSSet(), o.alloc.Pool()
				want, wantErr := resilience.PlanStandby(o.ctrl, o.topo, live.Path, stops, slice, 1, pool)
				wantFallback := pool.OPS != nil && (wantErr != nil || !want.Disjoint)
				if wantFallback {
					wide, wideErr := resilience.PlanStandby(o.ctrl, o.topo, live.Path, stops, slice, 1, topology.Pool{})
					if wantErr != nil || (wideErr == nil && wide.Disjoint) {
						want, wantErr = wide, wideErr
					}
					fellBack++
				}
				o.mu.Lock()
				o.setStandbyLocked(live, nil)
				o.mu.Unlock()
				out := reProtect(s, dep.ID)
				if (wantErr == nil) != (out.Err == nil) || out.Fallback != wantFallback {
					t.Fatalf("shards %d seed %d chain %d: group of one %+v, PlanStandby err %v fallback %v",
						shards, seed, dep.ID, out, wantErr, wantFallback)
				}
				if wantErr != nil {
					continue
				}
				got := out.Standby
				if !slices.Equal(got.Path, want.Path) || got.Disjoint != want.Disjoint || !slices.Equal(got.SRLGs, want.SRLGs) {
					t.Fatalf("shards %d seed %d chain %d: group of one planned %v (disjoint %v, SRLGs %v), PlanStandby %v (disjoint %v, SRLGs %v)",
						shards, seed, dep.ID, got.Path, got.Disjoint, got.SRLGs, want.Path, want.Disjoint, want.SRLGs)
				}
			}
		}
		if shards > 1 && fellBack == 0 {
			t.Fatalf("no chain on %d shards took the fabric retry; the fleets do not exercise the rule", shards)
		}
	}
}

// TestReProtectGroupAvoidsDomainSRLGs: a "srlg:N" domain steers a
// member's standby off tray N, where a group of one with no domain —
// which knows nothing of the failure — picks it.
func TestReProtectGroupAvoidsDomainSRLGs(t *testing.T) {
	s, o, ids := triOrch(t, Config{})
	// Route 1 — the first disjoint alternative — rides tray 4242.
	const tray = 4242
	for side := 0; side < 2; side++ {
		if err := o.topo.SetLinkSRLG(ids.torOpsLinks[side][1], tray); err != nil {
			t.Fatalf("SetLinkSRLG: %v", err)
		}
	}
	dep, err := s.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	drop := func() {
		o.mu.Lock()
		o.setStandbyLocked(o.deployments[dep.ID], nil)
		o.mu.Unlock()
	}
	drop()
	perChain := reProtect(s, dep.ID)
	if perChain.Err != nil || !pathContains(perChain.Standby.Path, ids.opss[1]) {
		t.Fatalf("no-domain standby = %+v, want the tray route (no domain knowledge)", perChain)
	}
	drop()
	grouped := s.ReProtectGroup(nil, FailureDomain{SRLGs: []int{tray}}, []DeploymentID{dep.ID})[0]
	if grouped.Err != nil || pathContains(grouped.Standby.Path, ids.opss[1]) {
		t.Fatalf("srlg:%d standby = %+v, still rides the domain tray", tray, grouped)
	}
	if !grouped.Standby.Disjoint {
		t.Fatalf("domain standby not disjoint: %+v", grouped.Standby)
	}
}

// TestReProtectGroupOfOneAllocations: the one re-protection path costs
// a per-chain re-protect no allocation but its outcome — at most 1 when
// the standby is alive and disjoint, at most 2 when it is re-planned:
// the outcome and the Standby, one block with its path and link arrays
// (the per-chain call it replaced: 0 and 7). Allocation counts under
// the race detector are not exact.
func TestReProtectGroupOfOneAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	s, o, _ := triOrch(t, Config{})
	dep, err := s.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	ids := []DeploymentID{dep.ID}
	noop := testing.AllocsPerRun(100, func() {
		if out := s.ReProtectGroup(nil, FailureDomain{}, ids); out[0].Replanned {
			t.Fatal("alive disjoint standby re-planned")
		}
	})
	live := o.deployments[dep.ID]
	replan := testing.AllocsPerRun(100, func() {
		o.mu.Lock()
		o.setStandbyLocked(live, nil)
		o.mu.Unlock()
		if out := s.ReProtectGroup(nil, FailureDomain{}, ids); !out[0].Replanned || out[0].Standby == nil {
			t.Fatalf("dropped standby not re-planned: %+v", out[0])
		}
	})
	t.Logf("group of one: %.0f allocations as a no-op, %.0f re-planning", noop, replan)
	if noop > 1 || replan > 2 {
		t.Fatalf("group of one allocates %.0f times as a no-op (want ≤ 1) and %.0f re-planning (want ≤ 2)", noop, replan)
	}
}

// TestStormRoundReplansAreMemoHits: failure_storm's rounds in process on
// stormFleet over one tray — cut eight chains' primary entry and standby
// exit links, reconcile, re-protect the repaired chains as one storm
// group, recover, re-protect. A repaired chain settles on its other route
// and the next cut moves it back, so the third round meets the first
// one's states (TestContractStormRevisit): its group re-plans are memo
// hits, run no graph search, and each member allocates the Standby it
// keeps and nothing else. On every round
// each chosen standby equals what resilience.PlanStandbyAvoiding gives
// that chain alone on the same state, under the pool-then-fabric rule:
// TestReProtectGroupOfOneEqualsPlanStandby extended to storm rounds.
func TestStormRoundReplansAreMemoHits(t *testing.T) {
	s, topo := stormFleet(t)
	domain := FailureDomain{Batch: 1}
	searches := func() (n int) {
		for i := range len(s.shards) {
			n += s.shards[i].ctrl.PathComputations()
		}
		return n
	}
	for round := 0; round < 3; round++ {
		var cut []topology.LinkID
		for id := DeploymentID(1); id <= 8; id++ {
			s.ViewDeployment(id, func(dep *Deployment) {
				prim, stby := transitLinks(t, topo, dep.Path), transitLinks(t, topo, dep.Standby.Path)
				cut = appendUnseen(cut, []topology.LinkID{prim[0], stby[len(stby)-1]})
			})
		}
		reports, err := s.HandleFailures(bg, topology.NewFailures(nil, cut))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ids := RepairedIDs(reports)
		before := searches()
		outs := s.ReProtectGroup(nil, domain, slices.Clone(ids))
		if round == 2 {
			if n := searches() - before; n != 0 {
				t.Fatalf("the third round's group re-plan ran %d graph searches, want memo hits only", n)
			}
			if !raceEnabled {
				checkReplanAllocations(t, s, domain, ids)
			}
		}
		for _, out := range outs {
			if out.Err != nil || !out.Replanned {
				t.Fatalf("round %d: chain %d: %+v", round, out.ID, out)
			}
			checkPlannedAlone(t, s, out, domain)
		}
		if err := s.Recover(topology.NewFailures(nil, cut)); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		for _, id := range ids {
			if out := reProtect(s, id); out.Err != nil || out.Standby == nil {
				t.Fatalf("round %d: chain %d left unprotected after the recovery: %v", round, id, out.Err)
			}
		}
	}
}

// checkReplanAllocations drops the members' standbys and re-plans them
// as the storm group did, on the state it did: every leg a memo hit, so
// each member allocates the Standby it keeps, as Clone lays it out (one
// block; the routes around the cut tray run from nine nodes over six
// links to fifteen over twelve), a fabric retry's losing plan nothing,
// and the group nothing else.
func checkReplanAllocations(t *testing.T, s *Sharded, domain FailureDomain, ids []DeploymentID) {
	t.Helper()
	members := slices.Clone(ids)
	outs := make([]GroupOutcome, 0, len(members))
	drop := func() {
		for _, id := range members {
			o := s.owner(id)
			o.mu.Lock()
			o.setStandbyLocked(o.deployments[id], nil)
			o.mu.Unlock()
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		drop()
		outs = s.ReProtectGroup(outs[:0], domain, members)
	})
	plans, want := 0, 0.0
	for _, out := range outs {
		kept, alone, _ := planAlone(t, s, out.ID, domain)
		plans += len(alone)
		want += testing.AllocsPerRun(1, func() { kept.Clone() })
	}
	if allocs != want {
		t.Fatalf("re-planning %d members (%d plans) allocates %.1f times, want %.0f: each member the Standby it keeps alone", len(members), plans, allocs, want)
	}
}

// checkPlannedAlone holds a member's chosen standby to what
// resilience.PlanStandbyAvoiding plans for the chain alone (planAlone).
func checkPlannedAlone(t *testing.T, s *Sharded, out GroupOutcome, domain FailureDomain) {
	t.Helper()
	want, _, fellBack := planAlone(t, s, out.ID, domain)
	got := out.Standby
	if out.Fallback != fellBack || !slices.Equal(got.Path, want.Path) || !slices.Equal(got.Links, want.Links) ||
		got.Disjoint != want.Disjoint || got.Confined != want.Confined || !slices.Equal(got.SRLGs, want.SRLGs) {
		t.Fatalf("chain %d: the storm group planned %+v (fallback %v), alone %+v (fallback %v)", out.ID, got, out.Fallback, want, fellBack)
	}
}

// planAlone plans chain id's standby with resilience.PlanStandbyAvoiding,
// its primary's links enumerated afresh, under the pool-then-fabric rule
// and the domain's risk groups: the standby chosen, every plan made (the
// pool's first), and whether it fell back to the fabric.
func planAlone(t *testing.T, s *Sharded, id DeploymentID, domain FailureDomain) (*resilience.Standby, []*resilience.Standby, bool) {
	t.Helper()
	o := s.owner(id)
	o.mu.Lock()
	dep := o.deployments[id]
	o.mu.Unlock()
	p := o.pipelineFrom(bg, dep)
	primary := resilience.Primary{Path: dep.Path, Stops: p.appendStandbyStops(nil), Slice: dep.Slice.OPSs}
	p.release()
	pool := o.alloc.Pool()
	want, err := resilience.PlanStandbyAvoiding(o.ctrl, o.topo, primary, pool, domain.SRLGs)
	var plans []*resilience.Standby
	if err == nil {
		plans = append(plans, want)
	}
	fellBack := pool.OPS != nil && (err != nil || !want.Disjoint)
	if fellBack {
		wide, wideErr := resilience.PlanStandbyAvoiding(o.ctrl, o.topo, primary, topology.Pool{}, domain.SRLGs)
		if wideErr == nil {
			plans = append(plans, wide)
		}
		if err != nil || (wideErr == nil && wide.Disjoint) {
			want, err = wide, wideErr
		}
	}
	if err != nil {
		t.Fatalf("chain %d: planned alone: %v", id, err)
	}
	return want, plans, fellBack
}
