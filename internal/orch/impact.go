package orch

import (
	"slices"

	"github.com/alvc/alvc/internal/topology"
)

// ImpactEntry is one deployment inside a failure set's blast radius,
// annotated with every role the set plays for it. Roles are a sorted
// subset of "host", "path", "slice", "standby": a chain whose only
// exposure is "standby" would not lose traffic if the set died — the
// reconciler would merely replan its anticipation.
type ImpactEntry struct {
	ID    DeploymentID
	Roles []string
}

// impact is Sharded.Impact over the shard's chains, in ID order.
func (o *shard) impact(f topology.Failures) []ImpactEntry {
	o.mu.Lock()
	defer o.mu.Unlock()
	nodes, links := f.Nodes(), f.Links()
	var ids []DeploymentID
	for _, n := range nodes {
		ids = union(ids, o.nodeIndex.of(n))
	}
	for _, l := range links {
		ids = union(ids, o.linkIndex.of(l))
	}
	var out []ImpactEntry
	for _, id := range ids {
		dep, ok := o.deployments[id]
		if !ok || dep.State != StateActive {
			continue
		}
		h := hitsOf(dep, f)
		// Appended in sorted order.
		var roles []string
		if h.host {
			roles = append(roles, "host")
		}
		if h.path {
			roles = append(roles, "path")
		}
		if h.slice {
			roles = append(roles, "slice")
		}
		if h.standby {
			roles = append(roles, "standby")
		}
		if len(roles) == 0 {
			continue // stale index window; nothing to report
		}
		out = append(out, ImpactEntry{ID: id, Roles: roles})
	}
	return out
}

// footprintHits says which parts of a deployment's footprint a failure
// set touches: its VNF hosts, its primary path (nodes or links), its
// slice's OPSs, its standby (nodes or links). Impact renders it as
// roles; the reconciler picks its repair by it.
type footprintHits struct {
	host, path, slice, standby bool
}

// hitsOf classifies f against dep's footprint. Caller holds o.mu.
func hitsOf(dep *Deployment, f topology.Failures) footprintHits {
	nodes, links := f.Nodes(), f.Links()
	return footprintHits{
		host:    anyIn(dep.Placement.Hosts, nodes),
		path:    anyIn(dep.Path, nodes) || anyIn(dep.primaryLinks, links),
		slice:   dep.Slice != nil && anyIn(dep.Slice.OPSs, nodes),
		standby: dep.Standby != nil && (anyIn(dep.Standby.Path, nodes) || anyIn(dep.Standby.Links, links)),
	}
}

// union merges two ascending ID lists, each ID once. With one list
// empty it returns the other uncopied: a one-resource set reads its
// posting list in place.
func union(a, b []DeploymentID) []DeploymentID {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := append(slices.Clip(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// anyIn reports whether any of ids is in the ascending set. A set of
// one, the common question, is a plain scan.
func anyIn[T ~int](ids, set []T) bool {
	switch len(set) {
	case 0:
		return false
	case 1:
		return slices.Contains(ids, set[0])
	}
	for _, id := range ids {
		if _, ok := slices.BinarySearch(set, id); ok {
			return true
		}
	}
	return false
}
