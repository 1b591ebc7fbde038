package orch

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/topology"
)

// TestReProtectGroupExactlyOnceAndSorted: a group pass restores every
// dropped standby in one planner pass, reports outcomes in ascending
// ID order, and a second pass over the now-protected fleet plans
// nothing new.
func TestReProtectGroupExactlyOnceAndSorted(t *testing.T) {
	s, o := newTestOrch(t, Config{Topo: wideTopology(t, 16), DeferReprotect: true})
	var deps []*Deployment
	for _, spec := range batchSpecs(t, 6) {
		dep, err := o.Provision(bg, spec)
		if err != nil {
			t.Fatalf("Provision %q: %v", spec.Name, err)
		}
		deps = append(deps, dep)
	}
	// Kill every standby-only link in one deferred batch: each hit
	// chain drops protection and waits for background re-protection.
	s.UpdateHooks(func(h *Hooks) { h.Events = &recordingSink{} })
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
	if _, err := s.HandleFailures(bg, nil, doomed); err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	var dropped []DeploymentID
	for _, dep := range deps {
		if o.Deployment(dep.ID).Standby == nil {
			dropped = append(dropped, dep.ID)
		}
	}
	if len(dropped) < 2 {
		t.Fatalf("only %d chains lost protection; fixture too weak", len(dropped))
	}
	for _, l := range doomed {
		if err := s.RecoverLink(l); err != nil {
			t.Fatalf("RecoverLink: %v", err)
		}
	}

	// Members handed over in scrambled order; the report must sort.
	members := make([]DeploymentID, 0, len(deps))
	for i := len(deps) - 1; i >= 0; i-- {
		members = append(members, deps[i].ID)
	}
	rep := o.ReProtectGroup("srlg:9", members)
	if rep.Domain != "srlg:9" || len(rep.Outcomes) != len(deps) {
		t.Fatalf("report = %+v, want %d outcomes for srlg:9", rep, len(deps))
	}
	if !sort.SliceIsSorted(rep.Outcomes, func(i, j int) bool {
		return rep.Outcomes[i].ID < rep.Outcomes[j].ID
	}) {
		t.Fatalf("outcomes out of order: %+v", rep.Outcomes)
	}
	replanned := 0
	for _, out := range rep.Outcomes {
		if out.Err != nil || out.Standby == nil {
			t.Fatalf("member %d outcome = %+v, want protection restored", out.ID, out)
		}
		if out.Replanned {
			replanned++
		}
		if got := o.Deployment(out.ID).Standby; got == nil {
			t.Fatalf("member %d left unindexed after group pass", out.ID)
		}
	}
	if replanned < len(dropped) {
		t.Fatalf("replanned %d members, want at least the %d dropped", replanned, len(dropped))
	}
	st := rep.Stats
	if st.Planned != replanned {
		t.Fatalf("Stats.Planned = %d, want %d (one Plan per replanned member)", st.Planned, replanned)
	}

	// Second pass: members holding a live disjoint standby are left
	// alone (a non-disjoint best-effort standby replans every pass by
	// design, so only the disjoint ones are asserted stable).
	disjoint := make(map[DeploymentID]bool)
	for _, out := range rep.Outcomes {
		if out.Standby.Disjoint {
			disjoint[out.ID] = true
		}
	}
	again := o.ReProtectGroup("srlg:9", members)
	for _, out := range again.Outcomes {
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
func pathLinkIDs(t *testing.T, o *Orchestrator, path []topology.NodeID) []topology.LinkID {
	t.Helper()
	links, err := resilience.PathLinks(o.topo, path)
	if err != nil {
		t.Fatalf("PathLinks(%v): %v", path, err)
	}
	return links
}

// TestReProtectGroupBusyMemberSkipped: a member owned by a concurrent
// exclusive operation is reported ErrBusy without blocking the rest of
// the group.
func TestReProtectGroupBusyMemberSkipped(t *testing.T) {
	_, o := newWideOrch(t, 16)
	var members []DeploymentID
	for _, spec := range batchSpecs(t, 3) {
		dep, err := o.Provision(bg, spec)
		if err != nil {
			t.Fatalf("Provision %q: %v", spec.Name, err)
		}
		members = append(members, dep.ID)
	}
	if _, err := o.beginExclusive(members[1]); err != nil {
		t.Fatalf("beginExclusive: %v", err)
	}
	defer o.endExclusive(members[1])
	rep := o.ReProtectGroup("batch:1", members)
	var busy, clean int
	for _, out := range rep.Outcomes {
		switch {
		case out.ID == members[1]:
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
	_, o, _ := triOrch(t, Config{})
	dep, err := o.Provision(bg, triSpec(t, "chain-0"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	rep := o.ReProtectGroup("srlg:1", []DeploymentID{dep.ID, 424242})
	if len(rep.Outcomes) != 2 {
		t.Fatalf("outcomes = %+v, want 2", rep.Outcomes)
	}
	if rep.Outcomes[0].ID != dep.ID || rep.Outcomes[0].Err != nil {
		t.Fatalf("known member outcome = %+v", rep.Outcomes[0])
	}
	if rep.Outcomes[1].Err == nil {
		t.Fatalf("phantom member succeeded: %+v", rep.Outcomes[1])
	}
}

// TestDomainSRLGParsing: the "srlg:3+7" domain grammar and its
// rejections.
func TestDomainSRLGParsing(t *testing.T) {
	cases := []struct {
		domain string
		want   []int
	}{
		{"srlg:7", []int{7}},
		{"srlg:3+7", []int{3, 7}},
		{"srlg:2000+3000+17", []int{2000, 3000, 17}},
		{"batch:4", nil},
		{"srlg:", nil},
		{"srlg:x+2", nil},
		{"", nil},
	}
	for _, tc := range cases {
		if got := domainSRLGs(tc.domain); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("domainSRLGs(%q) = %v, want %v", tc.domain, got, tc.want)
		}
	}
}

// TestShardedReProtectGroupMergesShards: the sharded fan-out routes
// each member to its owner, merges outcomes back sorted, and sums the
// per-shard planner stats.
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
	rep := s.ReProtectGroup("srlg:5", members)
	if len(rep.Outcomes) != len(members) {
		t.Fatalf("outcomes = %d, want %d", len(rep.Outcomes), len(members))
	}
	if !sort.SliceIsSorted(rep.Outcomes, func(i, j int) bool {
		return rep.Outcomes[i].ID < rep.Outcomes[j].ID
	}) {
		t.Fatalf("merged outcomes out of order: %+v", rep.Outcomes)
	}
	replanned := 0
	for _, out := range rep.Outcomes {
		if out.Err != nil {
			t.Fatalf("member %d failed: %v", out.ID, out.Err)
		}
		if out.Replanned {
			replanned++
		}
	}
	// The merged stats must agree with the merged outcomes: each
	// shard's planner saw exactly its replanned members.
	if rep.Stats.Planned != replanned {
		t.Fatalf("merged Stats.Planned = %d, want %d replanned members", rep.Stats.Planned, replanned)
	}
}
