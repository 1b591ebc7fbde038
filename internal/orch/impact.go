package orch

import (
	"slices"
	"sort"

	"github.com/alvc/alvc/internal/topology"
)

// ImpactEntry is one deployment inside a resource's blast radius,
// annotated with every role the resource plays for it. Roles are a
// sorted subset of "slice", "host", "path", "standby": a chain whose
// only exposure is "standby" would not lose traffic if the resource
// died — the reconciler would merely replan its anticipation.
type ImpactEntry struct {
	ID    DeploymentID
	Roles []string
}

// NodeImpact answers the operator-planning question "what breaks if
// this node dies": every active deployment whose footprint includes the
// node, straight from the reverse index's posting list (no scan, and
// already in ID order).
func (o *Orchestrator) NodeImpact(node topology.NodeID) []ImpactEntry {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []ImpactEntry
	for _, id := range o.nodeIndex.of(node) {
		dep, ok := o.deployments[id]
		if !ok || dep.State != StateActive {
			continue
		}
		var roles []string
		if dep.Slice != nil && dep.Slice.Contains(node) {
			roles = append(roles, "slice")
		}
		if slices.Contains(dep.Placement.Hosts, node) {
			roles = append(roles, "host")
		}
		if slices.Contains(dep.Path, node) {
			roles = append(roles, "path")
		}
		if dep.Standby != nil && slices.Contains(dep.Standby.Path, node) {
			roles = append(roles, "standby")
		}
		if len(roles) == 0 {
			continue // stale index window; nothing to report
		}
		sort.Strings(roles)
		out = append(out, ImpactEntry{ID: id, Roles: roles})
	}
	return out
}

// LinkImpact is the link variant of NodeImpact: every active deployment
// whose primary or standby path crosses the link, from the reverse link
// index and the per-deployment link caches, in ID order.
func (o *Orchestrator) LinkImpact(link topology.LinkID) []ImpactEntry {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []ImpactEntry
	for _, id := range o.linkIndex.of(link) {
		dep, ok := o.deployments[id]
		if !ok || dep.State != StateActive {
			continue
		}
		var roles []string
		if slices.Contains(dep.primaryLinks, link) {
			roles = append(roles, "path")
		}
		if dep.Standby != nil && slices.Contains(dep.Standby.Links, link) {
			roles = append(roles, "standby")
		}
		if len(roles) == 0 {
			continue
		}
		out = append(out, ImpactEntry{ID: id, Roles: roles})
	}
	return out
}
