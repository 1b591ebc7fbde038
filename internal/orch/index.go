package orch

// The reverse indexes: node → deployments and link → deployments whose
// footprint holds the resource, so failure impact is a lookup and not a
// scan of the fleet. Each is a table of slots by resource ID, each
// naming the deployment IDs that hold the resource in ascending order,
// and every commit is a delta: a repair that moves a chain off three
// links onto three others touches six slots, whatever else the chain's
// footprint holds.
//
// What a commit costs: a posting operation finds its slot by indexing the
// table (node and link IDs are dense, topology's tables make them so), so
// it hashes nothing. A slot is one word. Most resources have one holder —
// a slice OPS serves one AL (§III), and so do its boundary links — and
// such a slot holds that deployment's ID inline: adding or removing it
// writes the word and allocates nothing. Only a resource two or more
// chains share has a list, an ascending ID array as long as the chains
// sharing it, where a posting is one insert or delete. A re-protect
// commit is a handful of postings: the old standby's own nodes and links
// out, the new one's in (setStandbyLocked), each found against the
// deployment's few dozen registered keys by a linear scan.

import (
	"slices"

	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/topology"
)

// The bounds of a postings free list: how many emptied arrays it keeps
// and how large a kept array may be. A list is as long as the chains
// that share one resource. That is a few for a standby's links, but not
// for a PM hosting every chain's endpoint VMs or the ToRs they hang off:
// on the benchmark fleets every chain shares those, and with 600 chains
// resident at 1 200 OPSs, 8 node lists and 4 link lists hold all 600.
// Such a list is only emptied when the fleet is, and it is too long to
// keep: the cap recycles only the short lists that come and go with
// single chains, so what is kept is a few kilobytes a shard, whatever
// the fabric's or the fleet's size.
const (
	maxFreeLists = 64
	maxFreeCap   = 16
)

// postings is one reverse index. Guarded by the shard's mu. Deployment
// IDs are positive, which is what lets a slot tell an inline holder from
// a list.
type postings[K ~int] struct {
	// slots holds, by resource ID, who holds the resource: 0 no
	// footprint, a positive ID the one deployment whose footprint does,
	// and -(i+1) the list shared[i] of two or more. A word a slot: the
	// table spans every ID a footprint has held, a few kilobytes a shard
	// on the benchmark fabrics.
	slots []DeploymentID
	// shared holds the lists of the resources two or more deployments
	// hold, each ascending and duplicate-free; vacant lists the indexes
	// of its entries no slot names, nil entries, for the next one.
	shared [][]DeploymentID
	vacant []int
	// free holds emptied arrays for the next resource that gains a
	// second holder.
	free [][]DeploymentID
	// ops counts insertions and removals since construction: what the
	// index commits have cost, for the cost-follows-footprint tests.
	ops int
}

// of returns the resource's holders, nil when no footprint holds it. A
// sole holder is answered as a one-element view of its slot, so the
// answer is good until the index next changes.
func (p *postings[K]) of(key K) []DeploymentID {
	if int(key) >= len(p.slots) {
		return nil
	}
	switch s := p.slots[key]; {
	case s > 0:
		return p.slots[key : key+1 : key+1]
	case s < 0:
		return p.shared[-s-1]
	}
	return nil
}

func (p *postings[K]) add(key K, id DeploymentID) {
	p.slots = topology.Widen(p.slots, key)
	switch s := p.slots[key]; {
	case s == 0:
		p.slots[key] = id
	case s == id:
		return
	case s > 0:
		p.slots[key] = p.share(min(s, id), max(s, id))
	default:
		list := &p.shared[-s-1]
		i, found := slices.BinarySearch(*list, id)
		if found {
			return
		}
		*list = slices.Insert(*list, i, id)
	}
	p.ops++
}

func (p *postings[K]) remove(key K, id DeploymentID) {
	if int(key) >= len(p.slots) {
		return
	}
	switch s := p.slots[key]; {
	case s == id:
		p.slots[key] = 0
	case s < 0:
		list := p.shared[-s-1]
		i, found := slices.BinarySearch(list, id)
		if !found {
			return
		}
		if list = slices.Delete(list, i, i+1); len(list) > 1 {
			p.shared[-s-1] = list
			break
		}
		p.slots[key] = list[0]
		p.unshare(int(-s - 1))
	default:
		return
	}
	p.ops++
}

// share files the list {a, b}, a < b, in a vacant entry of shared (on a
// recycled array when the free list has one) and returns the slot value
// that names it.
func (p *postings[K]) share(a, b DeploymentID) DeploymentID {
	var list []DeploymentID
	if n := len(p.free); n > 0 {
		list, p.free = p.free[n-1], p.free[:n-1]
	}
	list = append(list, a, b)
	i := len(p.shared)
	if n := len(p.vacant); n > 0 {
		i, p.vacant = p.vacant[n-1], p.vacant[:n-1]
		p.shared[i] = list
	} else {
		p.shared = append(p.shared, list)
	}
	return DeploymentID(-i - 1)
}

// unshare vacates shared[i], keeping its array for the next share when
// the free list has room and the array is short.
func (p *postings[K]) unshare(i int) {
	list := p.shared[i][:0]
	p.shared[i] = nil
	p.vacant = append(p.vacant, i)
	if len(p.free) < maxFreeLists && cap(list) <= maxFreeCap {
		p.free = append(p.free, list)
	}
}

// retarget moves the deployment's postings from the keys it registered
// (old) to the keys it holds now, touching only the difference, and
// returns now's keys kept in old's array. now must not alias old.
func (p *postings[K]) retarget(id DeploymentID, old, now []K) []K {
	for _, k := range old {
		if !slices.Contains(now, k) {
			p.remove(k, id)
		}
	}
	for _, k := range now {
		if !slices.Contains(old, k) {
			p.add(k, id)
		}
	}
	return append(old[:0], now...)
}

// indexLocked brings the reverse indexes in line with the deployment's
// current footprint (nodes and links, primary and standby): postings are
// added for what the footprint gained since the last commit and removed
// for what it lost, and the deployment records exactly what is registered
// — idxNodes, idxLinks, and the primary path's links — in the arrays it
// already has. Caller holds o.mu; the topology must be readable (topoMu
// either side or a quiescent deployment).
func (o *shard) indexLocked(dep *Deployment) {
	// The primary link enumeration can only fail on a path whose hops
	// are no longer adjacent — impossible at a commit point, where the
	// path was just computed or verified alive.
	dep.primaryLinks, _ = o.topo.AppendPathLinks(dep.primaryLinks[:0], dep.Path)
	var nodes [64]topology.NodeID // a footprint is a few dozen entries: built on the stack
	var links [64]topology.LinkID
	o.retargetLocked(dep, dep.appendFootprint(nodes[:0]), dep.appendLinkFootprint(links[:0], dep.primaryLinks))
}

// retargetLocked is indexLocked past the footprint: the deployment's
// postings move to nodes and links. Caller holds o.mu.
func (o *shard) retargetLocked(dep *Deployment, nodes []topology.NodeID, links []topology.LinkID) {
	dep.idxNodes = o.nodeIndex.retarget(dep.ID, dep.idxNodes, nodes)
	dep.idxLinks = o.linkIndex.retarget(dep.ID, dep.idxLinks, links)
	o.noteOwedLocked(dep)
}

// noteOwedLocked files the deployment in the maintenance-owed index, or
// takes it out, as its standby and Drifted flag stand. Caller holds o.mu.
func (o *shard) noteOwedLocked(dep *Deployment) {
	if dep.Standby == nil || !dep.Standby.Disjoint || dep.Drifted {
		o.owed[dep.ID] = dep
	} else {
		delete(o.owed, dep.ID)
	}
}

// unindexLocked takes a deployment that is leaving the active fleet out
// of the reverse indexes. Caller holds o.mu.
func (o *shard) unindexLocked(dep *Deployment) {
	dep.idxNodes = o.nodeIndex.retarget(dep.ID, dep.idxNodes, nil)
	dep.idxLinks = o.linkIndex.retarget(dep.ID, dep.idxLinks, nil)
}

// noStandby is what setStandbyLocked reads a nil standby as: no path, no
// links.
var noStandby resilience.Standby

// setStandbyLocked replaces the deployment's standby (nil forgets it)
// and changes in the reverse indexes exactly what a standby alone puts
// there: its nodes and links that are not also slice OPSs, VNF hosts or
// on the primary path. Everything else the deployment registered stays
// as it is, so gaining or losing a standby costs a walk of the standby,
// not a recomputation of the whole footprint. Caller holds o.mu.
func (o *shard) setStandbyLocked(dep *Deployment, sb *resilience.Standby) {
	old, now := dep.Standby, sb
	if old == nil {
		old = &noStandby
	}
	if now == nil {
		now = &noStandby
	}
	dep.Standby = sb
	o.noteOwedLocked(dep)
	dep.idxNodes = o.nodeIndex.moveOwn(dep.ID, dep.idxNodes, old.Path, now.Path, func(n topology.NodeID) bool {
		return slices.Contains(dep.Path, n) || slices.Contains(dep.Placement.Hosts, n) ||
			(dep.Slice != nil && slices.Contains(dep.Slice.OPSs, n))
	})
	dep.idxLinks = o.linkIndex.moveOwn(dep.ID, dep.idxLinks, old.Links, now.Links, func(l topology.LinkID) bool {
		return slices.Contains(dep.primaryLinks, l)
	})
}

// moveOwn is setStandbyLocked for one index: of the deployment's
// registered keys idx, those only the old standby put there (shared
// reports the ones the rest of the footprint holds too) go, the new
// standby's that are not there yet come, and idx is returned as it now
// stands.
func (p *postings[K]) moveOwn(id DeploymentID, idx, old, now []K, shared func(K) bool) []K {
	for _, k := range old {
		if slices.Contains(now, k) || shared(k) {
			continue
		}
		if i := slices.Index(idx, k); i >= 0 {
			idx = slices.Delete(idx, i, i+1)
			p.remove(k, id)
		}
	}
	for _, k := range now {
		if !slices.Contains(idx, k) {
			idx = append(idx, k)
			p.add(k, id)
		}
	}
	return idx
}

// appendFootprint appends the deduplicated nodes this deployment depends
// on: its slice's OPSs, its VNF hosts, every node on its path, and every
// node on its standby path (a failure consuming only the standby still
// needs reconciling — the standby must be replanned).
func (d *Deployment) appendFootprint(out []topology.NodeID) []topology.NodeID {
	var opss, standby []topology.NodeID
	if d.Slice != nil {
		opss = d.Slice.OPSs
	}
	if d.Standby != nil {
		standby = d.Standby.Path
	}
	out = slices.Grow(out, len(opss)+len(d.Placement.Hosts)+len(d.Path)+len(standby))
	for _, part := range [...][]topology.NodeID{opss, d.Placement.Hosts, d.Path, standby} {
		out = appendUnseen(out, part)
	}
	return out
}

// appendLinkFootprint appends the deduplicated physical links of the
// primary (already enumerated by the caller) and standby paths.
func (d *Deployment) appendLinkFootprint(out, primary []topology.LinkID) []topology.LinkID {
	var standby []topology.LinkID
	if d.Standby != nil {
		standby = d.Standby.Links
	}
	out = slices.Grow(out, len(primary)+len(standby))
	return appendUnseen(appendUnseen(out, primary), standby)
}

// appendUnseen appends to out, in order, the elements of in that out
// does not hold yet. A footprint is a few dozen entries, where a linear
// look-back beats building a set.
func appendUnseen[T comparable](out, in []T) []T {
	for _, v := range in {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}
