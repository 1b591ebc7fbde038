package orch

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/topology"
)

// The map-based failure set, blast-radius queries and affected-chain
// lookup the failure plane ran before it carried one sorted
// topology.Failures, kept verbatim (renamed) as the reference the
// sorted implementations must agree with.

type refFailureSet struct {
	Nodes        map[topology.NodeID]bool
	Links        map[topology.LinkID]bool
	SRLGs        map[int]bool
	SuspectLinks map[topology.LinkID]bool
}

func newRefFailureSet(nodes []topology.NodeID, links []topology.LinkID) refFailureSet {
	f := refFailureSet{
		Nodes: make(map[topology.NodeID]bool, len(nodes)),
		Links: make(map[topology.LinkID]bool, len(links)),
		SRLGs: make(map[int]bool),
	}
	for _, n := range nodes {
		f.Nodes[n] = true
	}
	for _, l := range links {
		f.Links[l] = true
	}
	return f
}

func (f *refFailureSet) CollectSRLGs(topo *topology.Topology) {
	for l := range f.Links {
		link := topo.Link(l)
		if link == nil {
			continue
		}
		for _, g := range link.SRLG {
			f.SRLGs[g] = true
		}
	}
	suspect := make(map[topology.LinkID]bool, len(f.Links))
	for l := range f.Links {
		suspect[l] = true
	}
	for g := range f.SRLGs {
		for _, l := range topo.SRLGLinks(g) {
			suspect[l] = true
		}
	}
	f.SuspectLinks = suspect
}

func (f refFailureSet) HitsAnySRLG(groups []int) bool {
	if len(f.SRLGs) == 0 {
		return false
	}
	for _, g := range groups {
		if f.SRLGs[g] {
			return true
		}
	}
	return false
}

func (f refFailureSet) HitsAnyNode(nodes []topology.NodeID) bool {
	for _, n := range nodes {
		if f.Nodes[n] {
			return true
		}
	}
	return false
}

func (f refFailureSet) HitsAnyLink(links []topology.LinkID) bool {
	for _, l := range links {
		if f.Links[l] {
			return true
		}
	}
	return false
}

func refAffectedBy(o *Orchestrator, dead refFailureSet) []DeploymentID {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []DeploymentID
	for n := range dead.Nodes {
		out = append(out, o.nodeIndex.of(n)...)
	}
	for l := range dead.Links {
		out = append(out, o.linkIndex.of(l)...)
	}
	switch {
	case dead.SuspectLinks != nil:
		for l := range dead.SuspectLinks {
			if dead.Links[l] {
				continue // dead links were collected above
			}
			out = append(out, o.linkIndex.of(l)...)
		}
	case len(dead.SRLGs) > 0:
		for i, list := range o.linkIndex.lists {
			l := topology.LinkID(i)
			if list == nil || dead.Links[l] {
				continue
			}
			link := o.topo.Link(l)
			if link != nil && dead.HitsAnySRLG(link.SRLG) {
				out = append(out, *list...)
			}
		}
	}
	slices.Sort(out)
	return slices.DeleteFunc(slices.Compact(out), func(id DeploymentID) bool {
		dep, ok := o.deployments[id]
		return !ok || dep.State != StateActive
	})
}

func refNodeImpact(o *Orchestrator, node topology.NodeID) []ImpactEntry {
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

func refLinkImpact(o *Orchestrator, link topology.LinkID) []ImpactEntry {
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

// sortedKeys returns a reference map's keys, ascending (nil when none).
func sortedKeys[K ~int](m map[K]bool) []K {
	var out []K
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// refSetImpact is the reference blast radius of several resources: the
// one-resource answers of every shard merged by chain, roles united.
func refSetImpact(s *Sharded, nodes []topology.NodeID, links []topology.LinkID) []ImpactEntry {
	roles := map[DeploymentID]map[string]bool{}
	add := func(entries []ImpactEntry) {
		for _, e := range entries {
			if roles[e.ID] == nil {
				roles[e.ID] = map[string]bool{}
			}
			for _, r := range e.Roles {
				roles[e.ID][r] = true
			}
		}
	}
	for _, o := range s.shards {
		for _, n := range nodes {
			add(refNodeImpact(o, n))
		}
		for _, l := range links {
			add(refLinkImpact(o, l))
		}
	}
	var out []ImpactEntry
	for id, set := range roles {
		e := ImpactEntry{ID: id}
		for r := range set {
			e.Roles = append(e.Roles, r)
		}
		sort.Strings(e.Roles)
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b ImpactEntry) int { return int(a.ID - b.ID) })
	return out
}

// randomFailures draws one failure set's raw lists over the fleet's
// topology: nodes only, links only or both; IDs unsorted and sometimes
// repeated; whole shared-risk groups, so a dead link is also suspect
// through another dead one; and now and then an ID no resource has.
func randomFailures(rng *rand.Rand, topo *topology.Topology, nodeIDs []topology.NodeID, links []*topology.Link) ([]topology.NodeID, []topology.LinkID) {
	var nodes []topology.NodeID
	var dead []topology.LinkID
	mode := rng.Intn(3) // 0 nodes only, 1 links only, 2 mixed
	if mode != 1 {
		for i := 1 + rng.Intn(4); i > 0; i-- {
			nodes = append(nodes, nodeIDs[rng.Intn(len(nodeIDs))])
		}
		if rng.Intn(3) == 0 {
			nodes = append(nodes, nodes[0]) // a duplicate
		}
	}
	if mode != 0 {
		for i := 1 + rng.Intn(4); i > 0; i-- {
			dead = append(dead, links[rng.Intn(len(links))].ID)
		}
		if rng.Intn(3) == 0 {
			dead = append(dead, dead[0])
		}
		if g := 1 + rng.Intn(4); rng.Intn(3) == 0 {
			dead = append(dead, topo.SRLGLinks(g)...) // a whole tray
		}
		if rng.Intn(10) == 0 {
			dead = append(dead, topology.LinkID(len(links)+5))
		}
	}
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	rng.Shuffle(len(dead), func(i, j int) { dead[i], dead[j] = dead[j], dead[i] })
	return nodes, dead
}

// TestFailureSetsEqualMapReference: over 560 seeded failure sets on
// fleets whose ToR↔OPS links ride shared-risk trays, at one and four
// shards, the sorted failure plane equals the map-based reference:
// Classify's nodes, links, groups and suspect links equal the
// reference set's; every shard's affected chains equal the reference
// lookup's, by the suspect links and by the group-probing fallback it
// also had; the classifier's hit predicates agree, and so do the set's
// own HasNode and HasLink; every one-resource
// Impact equals the reference NodeImpact or LinkImpact, entries and
// roles; and the whole set's Impact equals their union.
func TestFailureSetsEqualMapReference(t *testing.T) {
	sets, hit, grouped := 0, 0, 0
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			s := equivalenceFleet(t, seed, shards)
			topo := s.core.topo
			nodeIDs, links := topo.NodeIDs(), topo.Links()
			rng := rand.New(rand.NewSource(seed * 7919))
			for trial := 0; trial < 70; trial++ {
				sets++
				nodes, dead := randomFailures(rng, topo, nodeIDs, links)
				// The fleet's own resources, so most sets hit something.
				if dep := s.Deployments()[rng.Intn(12)]; rng.Intn(2) == 0 {
					nodes = append(nodes, dep.Path[rng.Intn(len(dep.Path))])
					if dep.Standby != nil && len(dep.Standby.Links) > 0 {
						dead = append(dead, dep.Standby.Links[rng.Intn(len(dep.Standby.Links))])
					}
				}
				got := resilience.Classify(topo, topology.NewFailures(nodes, dead))
				ref := newRefFailureSet(nodes, dead)
				ref.CollectSRLGs(topo)
				if !slices.Equal(got.Nodes(), sortedKeys(ref.Nodes)) || !slices.Equal(got.Links(), sortedKeys(ref.Links)) ||
					!slices.Equal(got.SRLGs, sortedKeys(ref.SRLGs)) || !slices.Equal(got.Suspect, sortedKeys(ref.SuspectLinks)) {
					t.Fatalf("shards %d seed %d trial %d, nodes %v links %v: Classify %v %v %v %v, reference %v %v %v %v",
						shards, seed, trial, nodes, dead, got.Nodes(), got.Links(), got.SRLGs, got.Suspect,
						sortedKeys(ref.Nodes), sortedKeys(ref.Links), sortedKeys(ref.SRLGs), sortedKeys(ref.SuspectLinks))
				}
				if len(got.SRLGs) > 0 {
					grouped++
				}
				probing := ref
				probing.SuspectLinks = nil
				for i, o := range s.shards {
					want := refAffectedBy(o, ref)
					if len(want) > 0 {
						hit++
					}
					if gotIDs := o.affectedBy(got); !slices.Equal(gotIDs, want) {
						t.Fatalf("shards %d seed %d trial %d shard %d: affectedBy %v, reference %v", shards, seed, trial, i, gotIDs, want)
					}
					if fallback := refAffectedBy(o, probing); !slices.Equal(fallback, want) {
						t.Fatalf("shards %d seed %d trial %d shard %d: reference fallback %v, suspect links %v", shards, seed, trial, i, fallback, want)
					}
				}
				for _, dep := range s.Deployments() {
					hit := func(nodes []topology.NodeID, links []topology.LinkID) bool {
						return anyIn(nodes, got.Nodes()) || anyIn(links, got.Links())
					}
					refHit := func(nodes []topology.NodeID, links []topology.LinkID) bool {
						return ref.HitsAnyNode(nodes) || ref.HitsAnyLink(links)
					}
					pairs := [][2]bool{
						{hit(dep.Path, dep.primaryLinks), refHit(dep.Path, dep.primaryLinks)},
						{hit(dep.Placement.Hosts, nil), refHit(dep.Placement.Hosts, nil)},
						{hit(dep.Slice.OPSs, nil), refHit(dep.Slice.OPSs, nil)},
					}
					if dep.Standby != nil {
						pairs = append(pairs,
							[2]bool{hit(dep.Standby.Path, dep.Standby.Links), refHit(dep.Standby.Path, dep.Standby.Links)},
							[2]bool{got.HitsAnySRLG(dep.Standby.SRLGs), ref.HitsAnySRLG(dep.Standby.SRLGs)})
					}
					for _, n := range dep.Path {
						pairs = append(pairs, [2]bool{got.HasNode(n), ref.Nodes[n]})
					}
					for _, l := range dep.primaryLinks {
						pairs = append(pairs, [2]bool{got.HasLink(l), ref.Links[l]})
					}
					for k, p := range pairs {
						if p[0] != p[1] {
							t.Fatalf("shards %d seed %d trial %d chain %d predicate %d: %v, reference %v", shards, seed, trial, dep.ID, k, p[0], p[1])
						}
					}
				}
				for _, n := range got.Nodes() {
					one := s.Impact(topology.NewFailures([]topology.NodeID{n}, nil))
					if want := refSetImpact(s, []topology.NodeID{n}, nil); !impactEqual(one, want) {
						t.Fatalf("shards %d seed %d: Impact(node %d) = %+v, reference %+v", shards, seed, n, one, want)
					}
				}
				for _, l := range got.Links() {
					one := s.Impact(topology.NewFailures(nil, []topology.LinkID{l}))
					if want := refSetImpact(s, nil, []topology.LinkID{l}); !impactEqual(one, want) {
						t.Fatalf("shards %d seed %d: Impact(link %d) = %+v, reference %+v", shards, seed, l, one, want)
					}
				}
				if all, want := s.Impact(got.Failures), refSetImpact(s, got.Nodes(), got.Links()); !impactEqual(all, want) {
					t.Fatalf("shards %d seed %d trial %d: Impact(set) = %+v, reference union %+v", shards, seed, trial, all, want)
				}
			}
		}
	}
	t.Logf("%d sets, %d shard passes affecting chains, %d sets with risk groups", sets, hit, grouped)
	if sets < 500 || hit < sets/2 || grouped < sets/4 {
		t.Fatalf("%d sets, %d shard passes affecting chains, %d with risk groups: the draw no longer exercises the plane", sets, hit, grouped)
	}
}

// impactEqual compares blast radii, with no entries and nil the same.
func impactEqual(a, b []ImpactEntry) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestDebouncerPendingEqualsMapUnion: over seeded report sequences —
// nodes, links or both, unsorted and repeated, across a small ID space
// so reports overlap — the debouncer's pending lists after every report
// are the ascending keys of a map union, the callers' lists are not
// kept (a caller reusing its list leaves the union as it was), and the
// flush dispatches exactly that union.
func TestDebouncerPendingEqualsMapUnion(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &fakeHandler{}
		d := NewFailureDebouncer(h, time.Hour)
		d.clock = &manualClock{}
		nodes, links := map[topology.NodeID]bool{}, map[topology.LinkID]bool{}
		for r := rng.Intn(30); r >= 0; r-- {
			var ns []topology.NodeID
			var ls []topology.LinkID
			for i := rng.Intn(4); i > 0; i-- {
				ns = append(ns, topology.NodeID(1+rng.Intn(40)))
			}
			for i := rng.Intn(4); i > 0; i-- {
				ls = append(ls, topology.LinkID(1+rng.Intn(40)))
			}
			for _, n := range ns {
				nodes[n] = true
			}
			for _, l := range ls {
				links[l] = true
			}
			d.Report(bg, topology.NewFailures(ns, ls))
			for i := range ns {
				ns[i] = 999 // the caller reuses its list
			}
			for i := range ls {
				ls[i] = 999
			}
			d.mu.Lock()
			pendingN, pendingL := slices.Clone(d.nodes), slices.Clone(d.links)
			d.mu.Unlock()
			if !slices.Equal(pendingN, sortedKeys(nodes)) || !slices.Equal(pendingL, sortedKeys(links)) {
				t.Fatalf("seed %d: pending %v %v, map union %v %v", seed, pendingN, pendingL, sortedKeys(nodes), sortedKeys(links))
			}
			if n, l := d.Pending(); n != len(nodes) || l != len(links) {
				t.Fatalf("seed %d: Pending() = %d, %d, map union sizes %d, %d", seed, n, l, len(nodes), len(links))
			}
		}
		if _, err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if len(nodes) == 0 && len(links) == 0 {
			if h.batchCount() != 0 {
				t.Fatalf("seed %d: an empty union dispatched", seed)
			}
			continue
		}
		var wantN, wantL []int
		for _, n := range sortedKeys(nodes) {
			wantN = append(wantN, int(n))
		}
		for _, l := range sortedKeys(links) {
			wantL = append(wantL, int(l))
		}
		if h.batchCount() != 1 || !slices.Equal(h.batches[0][0], wantN) || !slices.Equal(h.batches[0][1], wantL) {
			t.Fatalf("seed %d: flushed %v, map union %v %v", seed, h.batches, wantN, wantL)
		}
		if n, l := d.Pending(); n != 0 || l != 0 {
			t.Fatalf("seed %d: %d nodes and %d links pending after the flush", seed, n, l)
		}
	}
}

// TestMixedBatchIsOneLivenessTransition: a failure set of a node and a
// link is one liveness transition — one generation bump and one
// snapshot patch — and so is its recovery.
func TestMixedBatchIsOneLivenessTransition(t *testing.T) {
	s, o := newOrch(t)
	if _, err := o.Provision(bg, webSpec(t, "chain-1")); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	topo := o.topo
	opss := topo.NodeIDs(topology.KindOPS)
	node, link := opss[len(opss)-1], topo.Links()[0].ID
	f := topology.NewFailures([]topology.NodeID{node}, []topology.LinkID{link})
	gen, patches := topo.Generation(), topo.LivenessPatches()
	if _, err := s.HandleFailures(bg, f); err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if g, p := topo.Generation()-gen, topo.LivenessPatches()-patches; g != 1 || p != 1 {
		t.Fatalf("a node+link failure advanced the generation by %d and the liveness patches by %d, want 1 and 1", g, p)
	}
	if !topo.Node(node).Down || !topo.Link(link).Down {
		t.Fatal("the set is not down")
	}
	gen, patches = topo.Generation(), topo.LivenessPatches()
	if err := s.Recover(f); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if g, p := topo.Generation()-gen, topo.LivenessPatches()-patches; g != 1 || p != 1 {
		t.Fatalf("a node+link recovery advanced the generation by %d and the liveness patches by %d, want 1 and 1", g, p)
	}
	if topo.Node(node).Down || topo.Link(link).Down {
		t.Fatal("the set is still down")
	}
}
