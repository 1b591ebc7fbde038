package optimizer

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/topology"
)

// countingTarget wraps an orchestrator and counts re-protects per
// deployment — the exactly-once witness for storm-mode grouping.
type countingTarget struct {
	*orch.Sharded
	mu         sync.Mutex
	reprotects map[orch.DeploymentID]int
}

// ReProtectGroup counts each member once — storm-group tasks and
// per-chain tasks (groups of one) both call it, so exactly-once must
// hold across both combined.
func (c *countingTarget) ReProtectGroup(buf []orch.GroupOutcome, domain orch.FailureDomain, ids []orch.DeploymentID) []orch.GroupOutcome {
	c.mu.Lock()
	for _, id := range ids {
		c.reprotects[id]++
	}
	c.mu.Unlock()
	return c.Sharded.ReProtectGroup(buf, domain, ids)
}

// TestStormModeCoalescesByDomain: once the queue depth crosses the
// threshold, repair events sharing a failure domain fold into one
// group task; draining re-protects every member exactly once and
// disengages the storm.
func TestStormModeCoalescesByDomain(t *testing.T) {
	o, err := orch.New(orch.Config{Topo: wideTopo(t, 10), Policy: placement.AllElectronic{}, DeferReprotect: true}, 1, orch.ShardByTenant)
	if err != nil {
		t.Fatalf("orch.New: %v", err)
	}
	target := &countingTarget{Sharded: o, reprotects: make(map[orch.DeploymentID]int)}
	eng, err := New(target, Options{StormThreshold: 2})
	if err != nil {
		t.Fatalf("optimizer.New: %v", err)
	}
	o.UpdateHooks(func(h *orch.Hooks) { h.Events = eng })

	var deps []*orch.Deployment
	for i := 0; i < 6; i++ {
		deps = append(deps, provision(t, o, fmt.Sprintf("chain-%d", i)))
	}

	// A domain-stamped repair burst, as one HandleFailures batch emits
	// it. The first two events queue per-deployment (depth below the
	// threshold); the third crosses it, engages storm mode and opens
	// the domain group; the rest coalesce into it.
	for _, dep := range deps {
		eng.OrchEvent(orch.Event{
			Kind:       orch.EventRepairCompleted,
			Deployment: dep.ID,
			Action:     orch.ActionSwapped,
			Domain:     orch.FailureDomain{SRLGs: []int{7}},
		})
	}
	st := eng.Status()
	if !st.Storm.Active || st.Storm.Activations != 1 {
		t.Fatalf("storm = %+v, want active after the burst", st.Storm)
	}
	if st.Storm.Domains != 1 || st.Storm.CoalescedTasks != 3 {
		t.Fatalf("storm = %+v, want Domains=1 CoalescedTasks=3", st.Storm)
	}
	// 2 per-deployment re-protects + 1 group task.
	if st.QueueDepth != 3 {
		t.Fatalf("queue depth = %d, want 3 (2 individual + 1 group)", st.QueueDepth)
	}

	results := eng.Drain()
	target.mu.Lock()
	for _, dep := range deps {
		if got := target.reprotects[dep.ID]; got != 1 {
			t.Fatalf("deployment %d re-protected %d times, want exactly 1", dep.ID, got)
		}
	}
	target.mu.Unlock()
	var groupSeen bool
	for _, res := range results {
		if res.Outcome == "storm-group" {
			groupSeen = true
			if !strings.Contains(res.Detail, "srlg:7") || !strings.Contains(res.Detail, "4 chains") {
				t.Fatalf("group result detail = %q", res.Detail)
			}
		}
	}
	if !groupSeen {
		t.Fatalf("no storm-group result in %+v", results)
	}
	if st = eng.Status(); st.Storm.Active {
		t.Fatalf("storm still active after drain: %+v", st.Storm)
	}
	if st.Storm.Activations != 1 {
		t.Fatalf("activations = %d, want 1", st.Storm.Activations)
	}
}

// TestStormDisabledAndThresholdGate: a negative threshold disables
// grouping entirely, and below the threshold domain-stamped events
// still queue per deployment.
func TestStormDisabledAndThresholdGate(t *testing.T) {
	o, eng := engineOver(t, wideTopo(t, 8), Options{StormThreshold: -1})
	var deps []*orch.Deployment
	for i := 0; i < 4; i++ {
		deps = append(deps, provision(t, o, fmt.Sprintf("chain-%d", i)))
	}
	for _, dep := range deps {
		eng.OrchEvent(orch.Event{
			Kind: orch.EventRepairCompleted, Deployment: dep.ID,
			Action: orch.ActionSwapped, Domain: orch.FailureDomain{SRLGs: []int{1}},
		})
	}
	st := eng.Status()
	if st.Storm.Active || st.Storm.Domains != 0 {
		t.Fatalf("storm engaged with a negative threshold: %+v", st.Storm)
	}
	if st.QueueDepth != 4 {
		t.Fatalf("queue depth = %d, want 4 (all individual)", st.QueueDepth)
	}
	eng.Drain()

	// Threshold high enough that the burst stays under it: no storm.
	o2, eng2 := engineOver(t, wideTopo(t, 8), Options{StormThreshold: 64})
	for i := 0; i < 4; i++ {
		dep := provision(t, o2, fmt.Sprintf("chain-%d", i))
		eng2.OrchEvent(orch.Event{
			Kind: orch.EventRepairCompleted, Deployment: dep.ID,
			Action: orch.ActionSwapped, Domain: orch.FailureDomain{SRLGs: []int{1}},
		})
	}
	if st := eng2.Status(); st.Storm.Active || st.QueueDepth != 4 {
		t.Fatalf("sub-threshold burst engaged storm: %+v", st)
	}
	eng2.Drain()
}

// TestStormGroupMemberDeleteAndHighWater: a deployment deleted while
// grouped leaves the group (no cancelled-chain re-protect attempts
// counted as failures), and the per-shard high-water mark records the
// spike.
func TestStormGroupMemberDeleteAndHighWater(t *testing.T) {
	o, eng := engineOver(t, wideTopo(t, 10), Options{StormThreshold: 1})
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
	if st := eng.Status(); !st.Storm.Active {
		t.Fatalf("storm not active: %+v", st.Storm)
	}
	// Delete a grouped member; its deployment-deleted event must pull
	// it out of the group before the group task runs.
	if _, err := o.Delete(bg, deps[2].ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	for _, res := range eng.Drain() {
		if res.Outcome == "failed" {
			t.Fatalf("storm drain failed: %+v", res)
		}
		if res.Outcome == "storm-group" && !strings.Contains(res.Detail, "0 failed") {
			t.Fatalf("group ran against a deleted member: %q", res.Detail)
		}
	}
	st := eng.Status()
	if len(st.ShardHighWater) != 1 || st.ShardHighWater[0] < 2 {
		t.Fatalf("shard high-water = %v, want a recorded spike", st.ShardHighWater)
	}
}

// TestStatusSurfacesDebounceCounters: an attached debounce source's
// coalescing stats ride along in Status.
func TestStatusSurfacesDebounceCounters(t *testing.T) {
	o, eng := engineOver(t, wideTopo(t, 6), Options{})
	d := orch.NewFailureDebouncer(o, time.Hour)
	eng.SetDebounceSource(d)
	if st := eng.Status(); st.Debounce == nil || st.Debounce.Events != 0 {
		t.Fatalf("debounce stats = %+v, want zeroed", st.Debounce)
	}
	d.Report(bg, topology.NewFailures(nil, nil)) // empty: not counted
	if st := eng.Status(); st.Debounce.Events != 0 {
		t.Fatalf("empty report counted: %+v", st.Debounce)
	}
	// Two coalesced reports, one batch — the counters flow through.
	d.Report(bg, topology.NewFailures([]topology.NodeID{99990}, nil))
	d.Report(bg, topology.NewFailures([]topology.NodeID{99991}, nil))
	if _, err := d.Flush(); err == nil {
		t.Fatal("unknown-node batch should error")
	}
	st := eng.Status()
	if st.Debounce == nil || st.Debounce.Events != 2 || st.Debounce.Batches != 1 || st.Debounce.Coalesced != 1 {
		t.Fatalf("debounce stats = %+v, want Events=2 Batches=1 Coalesced=1", st.Debounce)
	}
	_ = provision(t, o, "chain-1")
}

// TestStormGroupFallbackMovesBothFamilies: a storm-group member whose
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
	eng, err := New(s, Options{StormThreshold: 1})
	if err != nil {
		t.Fatalf("optimizer.New: %v", err)
	}
	dep := provision(t, s, "chain-1")
	if dep.Standby == nil || dep.Standby.Disjoint {
		t.Fatalf("standby at provision = %+v, want a non-disjoint one", dep.Standby)
	}
	// A queued task holds the depth at the threshold, so the repair event
	// coalesces into a storm group instead of queueing per chain.
	eng.Enqueue(dep.ID, KindDefrag)
	before := s.StandbyFallbacks()
	eng.OrchEvent(orch.Event{Kind: orch.EventRepairCompleted, Deployment: dep.ID,
		Action: orch.ActionSwapped, Domain: orch.FailureDomain{SRLGs: []int{7}}})
	eng.Drain()
	if st := eng.Status(); st.Storm.Domains != 1 || st.GroupPlans != (GroupPlanStats{Planned: 1, Fallbacks: 1}) {
		t.Fatalf("storm %+v, group plans %+v: want one group, one member planned, one fallback", st.Storm, st.GroupPlans)
	}
	if got := s.StandbyFallbacks() - before; got != 1 {
		t.Fatalf("standby fallbacks moved by %d, want the group member's 1", got)
	}
}
