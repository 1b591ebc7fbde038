package resilience

import (
	"fmt"

	"github.com/alvc/alvc/internal/topology"
)

// GroupPlanner plans standbys for every survivor of one failure domain
// under the domain's shared avoidance set: the risk groups that just
// failed are avoided by every member's standby like the member's own
// primary links, so re-protection steers the whole group off the trays
// that define the domain. Members that ask the same segment question
// (same endpoints, pool, primary and spread) share the finder's memo.
//
// A planner is single-pass state: build one per domain group, call Plan
// for each member, then read Stats. It is NOT safe for concurrent use.
type GroupPlanner struct {
	finder PathFinder
	topo   *topology.Topology
	// avoid is the failure domain's shared-risk groups.
	avoid []int
	stats GroupStats
}

// GroupStats summarizes one domain pass for operators and the bench.
type GroupStats struct {
	// Planned counts Plan calls — chains routed through the group
	// planner, successful or not.
	Planned int
	// Fallbacks counts whole-fabric retries (PlanFallback) after a
	// pool-restricted plan found no route, or none that was disjoint.
	Fallbacks int
}

// NewGroupPlanner builds a planner for one failure domain. domainSRLGs
// lists the shared-risk groups that define the domain (nil for an
// anonymous batch domain — the planner then plans exactly like
// per-chain PlanStandby).
func NewGroupPlanner(f PathFinder, topo *topology.Topology, domainSRLGs []int) (*GroupPlanner, error) {
	if f == nil || topo == nil {
		return nil, fmt.Errorf("resilience: group planner: nil finder or topology")
	}
	return &GroupPlanner{finder: f, topo: topo, avoid: domainSRLGs}, nil
}

// Plan computes one member chain's standby. Parameters mirror
// PlanStandby; the finder is the planner's.
func (gp *GroupPlanner) Plan(primary []topology.NodeID, stops []topology.NodeID, sliceOPS map[topology.NodeID]bool, allow topology.Pool) (*Standby, error) {
	gp.stats.Planned++
	return planStandbyWith(gp.finder, gp.topo, primary, stops, sliceOPS, allow, gp.avoid)
}

// PlanFallback is the whole-fabric retry of a member whose
// pool-restricted Plan fell short — no route, or none disjoint. It
// counts as a fallback, not as another planned chain.
func (gp *GroupPlanner) PlanFallback(primary []topology.NodeID, stops []topology.NodeID, sliceOPS map[topology.NodeID]bool) (*Standby, error) {
	gp.stats.Fallbacks++
	return planStandbyWith(gp.finder, gp.topo, primary, stops, sliceOPS, topology.Pool{}, gp.avoid)
}

// Stats returns the pass's accumulated counters.
func (gp *GroupPlanner) Stats() GroupStats { return gp.stats }
