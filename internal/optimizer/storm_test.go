package optimizer

import (
	"fmt"
	"sync"
	"testing"

	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/placement"
)

// countingTarget wraps an orchestrator and counts re-protects per
// deployment — the exactly-once witness for failure-domain grouping.
type countingTarget struct {
	*orch.Sharded
	mu         sync.Mutex
	reprotects map[orch.DeploymentID]int
}

// ReProtectGroup counts each member once, whatever group it ran in.
func (c *countingTarget) ReProtectGroup(buf []orch.GroupOutcome, domain orch.FailureDomain, ids []orch.DeploymentID) []orch.GroupOutcome {
	c.mu.Lock()
	for _, id := range ids {
		c.reprotects[id]++
	}
	c.mu.Unlock()
	return c.Sharded.ReProtectGroup(buf, domain, ids)
}

// TestStormModeCoalescesByDomain: repair events sharing a failure
// domain fold into one group task whatever the queue depth; draining
// re-protects every member exactly once, leaves one result per member
// and no group behind.
func TestStormModeCoalescesByDomain(t *testing.T) {
	o, err := orch.New(orch.Config{Topo: wideTopo(t, 10), Policy: placement.AllElectronic{}, DeferReprotect: true}, 1, orch.ShardByTenant)
	if err != nil {
		t.Fatalf("orch.New: %v", err)
	}
	target := &countingTarget{Sharded: o, reprotects: make(map[orch.DeploymentID]int)}
	eng, err := New(target, Options{})
	if err != nil {
		t.Fatalf("optimizer.New: %v", err)
	}
	o.UpdateHooks(func(h *orch.Hooks) { h.Events = []orch.EventSink{eng} })

	var deps []*orch.Deployment
	for i := 0; i < 6; i++ {
		deps = append(deps, provision(t, o, fmt.Sprintf("chain-%d", i)))
	}

	// A domain-stamped repair burst, as one HandleFailures batch emits
	// it: the first event opens the domain's group, the rest join it.
	for _, dep := range deps {
		eng.OrchEvent(orch.Event{
			Kind:       orch.EventRepairCompleted,
			Deployment: dep.ID,
			Action:     orch.ActionSwapped,
			Domain:     orch.FailureDomain{SRLGs: []int{7}},
		})
	}
	st := eng.Status()
	if st.GroupPlans.Groups != 1 || st.GroupPlans.Coalesced != 5 {
		t.Fatalf("group plans = %+v, want Groups=1 Coalesced=5", st.GroupPlans)
	}
	if st.QueueDepth != 1 || st.Kinds[KindReProtect.String()].Enqueued != 6 {
		t.Fatalf("queue depth %d, kinds %+v: want one group task holding 6 members", st.QueueDepth, st.Kinds)
	}

	results := eng.Drain()
	target.mu.Lock()
	for _, dep := range deps {
		if got := target.reprotects[dep.ID]; got != 1 {
			t.Fatalf("deployment %d re-protected %d times, want exactly 1", dep.ID, got)
		}
	}
	target.mu.Unlock()
	if len(results) != len(deps) {
		t.Fatalf("drain left %d results, want one per member: %+v", len(results), results)
	}
	for i, res := range results {
		if res.Deployment != deps[i].ID || res.Kind != "re-protect" || res.Outcome != "protected" {
			t.Fatalf("result %d = %+v, want chain %d protected", i, res, deps[i].ID)
		}
	}
	if groups, members := laneSize(eng); groups != 0 || members != 0 {
		t.Fatalf("%d groups and %d members left after the drain", groups, members)
	}
}

// TestStormDisabledAndThresholdGate: no threshold gates grouping — a
// domain-stamped burst of four joins its domain's group.
func TestStormDisabledAndThresholdGate(t *testing.T) {
	o, eng := engineOver(t, wideTopo(t, 8), Options{})
	for i := 0; i < 4; i++ {
		dep := provision(t, o, fmt.Sprintf("chain-%d", i))
		eng.OrchEvent(orch.Event{
			Kind: orch.EventRepairCompleted, Deployment: dep.ID,
			Action: orch.ActionSwapped, Domain: orch.FailureDomain{SRLGs: []int{1}},
		})
	}
	if st := eng.Status(); st.QueueDepth != 1 || st.GroupPlans.Coalesced != 3 {
		t.Fatalf("queue depth %d, group plans %+v; want the burst in one group", st.QueueDepth, st.GroupPlans)
	}
	if n := len(eng.Drain()); n != 4 {
		t.Fatalf("drain left %d results, want 4", n)
	}
}

// TestStormGroupMemberDeleteAndHighWater: a deployment deleted while
// grouped leaves the group (no cancelled-chain re-protect attempts
// counted as failures), and the queue's high-water mark records the
// burst as the one queue entry it is.
func TestStormGroupMemberDeleteAndHighWater(t *testing.T) {
	o, eng := engineOver(t, wideTopo(t, 10), Options{})
	var deps []*orch.Deployment
	for i := 0; i < 5; i++ {
		deps = append(deps, provision(t, o, fmt.Sprintf("chain-%d", i)))
	}
	for _, dep := range deps {
		eng.OrchEvent(orch.Event{
			Kind: orch.EventRepairCompleted, Deployment: dep.ID,
			Action: orch.ActionSwapped, Domain: orch.FailureDomain{SRLGs: []int{3}},
		})
	}
	// Delete a grouped member; its deployment-deleted event must pull
	// it out of the group before the group task runs.
	if _, err := o.Delete(bg, deps[2].ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	results := eng.Drain()
	for _, res := range results {
		if res.Outcome == "failed" || res.Deployment == deps[2].ID {
			t.Fatalf("group ran against a deleted member: %+v", res)
		}
	}
	st := eng.Status()
	if len(results) != 4 || st.Kinds[KindReProtect.String()].Cancelled != 1 {
		t.Fatalf("%d results, kinds %+v: want 4 members run and 1 cancelled", len(results), st.Kinds)
	}
	if st.HighWater != 1 {
		t.Fatalf("queue high-water = %d, want the burst as one queued task", st.HighWater)
	}
}

// TestStormGroupFallbackMovesBothFamilies: a group member whose
// shard pool offers no disjoint standby retries on the whole fabric, and
// that one retry counts as a group-plan fallback
// (alvc_groupplan_fallbacks_total) and as a standby fallback
// (alvc_resilience_standby_fallbacks_total) alike.
func TestStormGroupFallbackMovesBothFamilies(t *testing.T) {
	// Both PMs are single-homed: no standby is ever disjoint, so a
	// four-shard pool's plan always falls back.
	s, err := orch.New(orch.Config{Topo: wideTopo(t, 8), Policy: placement.AllElectronic{}, DeferReprotect: true}, 4, orch.ShardByTenant)
	if err != nil {
		t.Fatalf("orch.New: %v", err)
	}
	eng, err := New(s, Options{})
	if err != nil {
		t.Fatalf("optimizer.New: %v", err)
	}
	dep := provision(t, s, "chain-1")
	if dep.Standby == nil || dep.Standby.Disjoint {
		t.Fatalf("standby at provision = %+v, want a non-disjoint one", dep.Standby)
	}
	before := standbyFallbacks(s)
	eng.OrchEvent(orch.Event{Kind: orch.EventRepairCompleted, Deployment: dep.ID,
		Action: orch.ActionSwapped, Domain: orch.FailureDomain{SRLGs: []int{7}}})
	eng.Drain()
	if st := eng.Status(); st.GroupPlans != (GroupPlanStats{Groups: 1, Planned: 1, Fallbacks: 1}) {
		t.Fatalf("group plans %+v: want one group, one member planned, one fallback", st.GroupPlans)
	}
	if got := standbyFallbacks(s) - before; got != 1 {
		t.Fatalf("standby fallbacks moved by %d, want the group member's 1", got)
	}
}
