package topology

import "slices"

// Failures is a set of nodes and links that fail or recover together:
// one liveness transition, from the failure report on the wire to the
// reconciler. Both lists are ascending and free of duplicates;
// NewFailures is the only way to build one.
type Failures struct {
	nodes []NodeID
	links []LinkID
}

// NewFailures builds the set of the given nodes and links. A list that
// is already strictly ascending is kept, not copied — the caller must
// not modify it while the set is in use; any other list is copied,
// sorted and compacted, and the caller's is left as it was.
func NewFailures(nodes []NodeID, links []LinkID) Failures {
	return Failures{nodes: ascending(nodes), links: ascending(links)}
}

func ascending[T ~int](ids []T) []T {
	if len(ids) == 0 {
		return nil
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			out := slices.Clone(ids)
			slices.Sort(out)
			return slices.Compact(out)
		}
	}
	return ids
}

// Nodes returns the set's nodes, ascending. The list is the set's own:
// read it, never modify it.
func (f Failures) Nodes() []NodeID { return f.nodes }

// Links returns the set's links, ascending, under Nodes' terms.
func (f Failures) Links() []LinkID { return f.links }

// Empty reports whether the set names nothing.
func (f Failures) Empty() bool { return len(f.nodes) == 0 && len(f.links) == 0 }

// HasNode reports whether the node is in the set.
func (f Failures) HasNode(id NodeID) bool {
	_, ok := slices.BinarySearch(f.nodes, id)
	return ok
}
