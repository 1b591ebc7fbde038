package orch

// The reverse indexes against a recomputation: an auditor that derives
// every posting list, every deployment's registered footprint and the
// owed set from the deployment records alone, a seeded op-sequence that
// audits after every step, corruptions that show the auditor fires, and
// the cost contracts of an index commit.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/alvc/alvc/internal/optical"
	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/topology"
)

// indexed returns what the shard's reverse index files under a node or a
// link. Caller holds o.mu.
func (o *Orchestrator) indexed(key any) []DeploymentID {
	switch k := key.(type) {
	case topology.NodeID:
		return o.nodeIndex.of(k)
	case topology.LinkID:
		return o.linkIndex.of(k)
	}
	panic(fmt.Sprintf("indexed: %T is neither a node nor a link", key))
}

// indexSizes returns how many nodes and links the shard's reverse
// indexes hold a list for. Caller holds o.mu.
func (o *Orchestrator) indexSizes() (nodes, links int) {
	return o.nodeIndex.keys(), o.linkIndex.keys()
}

// keys counts the resources the index holds a list for.
func (p *postings[K]) keys() (n int) {
	for _, list := range p.lists {
		if list != nil {
			n++
		}
	}
	return n
}

// footprint and linkFootprint are the from-scratch recomputations the
// oracles compare the maintained structures with.
func (d *Deployment) footprint() []topology.NodeID { return d.appendFootprint(nil) }

func (d *Deployment) linkFootprint(primary []topology.LinkID) []topology.LinkID {
	return d.appendLinkFootprint(nil, primary)
}

// auditPostings holds one reverse index against the lists recomputed
// from the deployment records: the same keys, each list ascending,
// duplicate-free and non-empty, and the free list within its bounds.
func auditPostings[K ~int](name string, p *postings[K], want map[K][]DeploymentID) (out []string) {
	if n := p.keys(); n != len(want) {
		out = append(out, fmt.Sprintf("%s index holds %d keys, the footprints %d", name, n, len(want)))
	}
	for key, ids := range want {
		slices.Sort(ids) // map order in, ID order out; a footprint names a key once
		if got := p.of(key); !slices.Equal(got, ids) {
			out = append(out, fmt.Sprintf("%s %v: list %v, footprints say %v", name, key, got, ids))
		}
	}
	if len(p.free) > maxFreeLists {
		out = append(out, fmt.Sprintf("%s index keeps %d freed arrays, bound %d", name, len(p.free), maxFreeLists))
	}
	for _, list := range p.free {
		if len(*list) != 0 || cap(*list) > maxFreeCap {
			out = append(out, fmt.Sprintf("%s index keeps a freed list of len %d cap %d", name, len(*list), cap(*list)))
		}
	}
	return out
}

// auditIndexes recomputes, from the shard's deployment records alone,
// everything its reverse indexes, owed set and per-deployment index
// records should hold, and lists every difference.
func auditIndexes(o *Orchestrator) (out []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	wantNodes := make(map[topology.NodeID][]DeploymentID)
	wantLinks := make(map[topology.LinkID][]DeploymentID)
	wantOwed := 0
	for id, dep := range o.deployments {
		if dep.State != StateActive {
			if len(dep.idxNodes)+len(dep.idxLinks) > 0 || o.owed[id] != nil {
				out = append(out, fmt.Sprintf("%s deployment %d is still indexed", dep.State, id))
			}
			continue
		}
		primary, err := resilience.PathLinks(o.topo, dep.Path)
		if err != nil {
			out = append(out, fmt.Sprintf("deployment %d: %v", id, err))
			continue
		}
		nodes, links := dep.footprint(), dep.linkFootprint(primary)
		if len(dep.idxNodes) != len(nodes) || !sameSet(dep.idxNodes, nodes) {
			out = append(out, fmt.Sprintf("deployment %d: idxNodes %v, footprint %v", id, dep.idxNodes, nodes))
		}
		if len(dep.idxLinks) != len(links) || !sameSet(dep.idxLinks, links) {
			out = append(out, fmt.Sprintf("deployment %d: idxLinks %v, link footprint %v", id, dep.idxLinks, links))
		}
		if !slices.Equal(dep.primaryLinks, primary) {
			out = append(out, fmt.Sprintf("deployment %d: primaryLinks %v, path links %v", id, dep.primaryLinks, primary))
		}
		for _, n := range nodes {
			wantNodes[n] = append(wantNodes[n], id)
		}
		for _, l := range links {
			wantLinks[l] = append(wantLinks[l], id)
		}
		owes := dep.Standby == nil || !dep.Standby.Disjoint || dep.Drifted
		if owes {
			wantOwed++
		}
		if (o.owed[id] == dep) != owes {
			out = append(out, fmt.Sprintf("deployment %d: owed %v, in the owed set %v", id, owes, o.owed[id] != nil))
		}
	}
	if len(o.owed) != wantOwed {
		out = append(out, fmt.Sprintf("owed set holds %d chains, %d are owed", len(o.owed), wantOwed))
	}
	out = append(out, auditPostings("node", &o.nodeIndex, wantNodes)...)
	return append(out, auditPostings("link", &o.linkIndex, wantLinks)...)
}

// indexScript drives a sharded fleet through a seeded sequence of every
// verb that commits to the reverse indexes.
type indexScript struct {
	t     *testing.T
	rng   *rand.Rand
	s     *Sharded
	topo  *topology.Topology
	pms   []topology.NodeID
	next  int               // next chain's number
	nodes []topology.NodeID // down now
	links []topology.LinkID
}

// pick returns a snapshot of one active chain, nil when there is none.
func (x *indexScript) pick() *Deployment {
	deps := slices.DeleteFunc(x.s.Deployments(), func(dep *Deployment) bool { return dep.State != StateActive })
	if len(deps) == 0 {
		return nil
	}
	return deps[x.rng.Intn(len(deps))]
}

// exposure picks a node and a link some chain depends on: mostly from
// its primary, else its standby, else its slice.
func (x *indexScript) exposure(dep *Deployment) (topology.NodeID, topology.LinkID) {
	path := dep.Path
	if dep.Standby != nil && x.rng.Intn(3) == 0 {
		path = dep.Standby.Path
	}
	node := path[1+x.rng.Intn(len(path)-2)] // an endpoint VM's death is a rebuild at best
	if x.rng.Intn(4) == 0 {
		node = dep.Slice.OPSs[x.rng.Intn(len(dep.Slice.OPSs))]
	}
	links, err := resilience.PathLinks(x.topo, path)
	if err != nil {
		x.t.Fatalf("PathLinks: %v", err)
	}
	return node, links[x.rng.Intn(len(links))]
}

// drain is what a background optimizer's drain does for the chains a
// shard says it owes: re-protect the unprotected, re-home the drifted.
func (x *indexScript) drain() {
	for _, h := range x.s.AppendOwedHealth(nil) {
		if !h.Disjoint {
			reProtect(x.s, h.ID)
		}
		if h.Drifted {
			_, _ = x.s.Rehome(h.ID, 1)
		}
	}
}

// step runs one verb. A verb's own error (no capacity, a dead endpoint,
// a chain that failed meanwhile) is the script's business as usual: the
// indexes must be right after it either way.
func (x *indexScript) step() string {
	dep := x.pick()
	op := x.rng.Intn(16)
	switch {
	case dep == nil || (op == 0 && x.s.ActiveCount() < 24):
		x.next++
		_, _ = x.s.Provision(bg, residentSpec(x.t, x.next, fmt.Sprintf("t%d", x.next)))
		return "provision"
	case len(x.nodes)+len(x.links) >= 4 || op == 1:
		// Something down comes back: the fabric must not drain away.
		if n := len(x.nodes); n > 0 && (len(x.links) == 0 || x.rng.Intn(2) == 0) {
			_ = x.s.Recover(topology.NewFailures([]topology.NodeID{x.nodes[n-1]}, nil))
			x.nodes = x.nodes[:n-1]
		} else if n := len(x.links); n > 0 {
			_ = x.s.Recover(topology.NewFailures(nil, []topology.LinkID{x.links[n-1]}))
			x.links = x.links[:n-1]
		}
		return "recover"
	case op == 2:
		_, _ = x.s.Delete(bg, dep.ID)
		return "delete"
	case op == 3:
		_ = x.s.Modify(dep.ID, 1+x.rng.Float64())
		return "modify"
	case op == 4:
		_ = x.s.MoveNF(dep.ID, x.rng.Intn(len(dep.Instances)), x.pms[x.rng.Intn(len(x.pms))])
		return "move"
	case op == 5:
		_ = x.s.ScaleNF(dep.ID, x.rng.Intn(len(dep.Instances)), 1+x.rng.Intn(2))
		return "scale"
	case op == 6:
		node, _ := x.exposure(dep)
		x.nodes = append(x.nodes, node)
		_, _ = failNode(x.s, node)
		return "fail node"
	case op == 7 || op == 8:
		_, link := x.exposure(dep)
		x.links = append(x.links, link)
		_, _ = failLink(x.s, link)
		return "fail link"
	case op == 9:
		node, link := x.exposure(dep)
		_, other := x.exposure(x.pick())
		x.nodes, x.links = append(x.nodes, node), append(x.links, link, other)
		_, _ = x.s.HandleFailures(bg, topology.NewFailures([]topology.NodeID{node}, []topology.LinkID{link, other}))
		return "fail batch"
	case op == 10:
		reProtect(x.s, dep.ID)
		return "re-protect"
	case op == 11:
		ids := []DeploymentID{dep.ID, x.pick().ID, x.pick().ID}
		x.s.ReProtectGroup(nil, FailureDomain{SRLGs: []int{1 + x.rng.Intn(3)}}, ids)
		return "re-protect group"
	case op == 12:
		_, _ = x.s.Rehome(dep.ID, 1)
		return "re-home"
	case op == 13:
		// Config fixes the switch at construction; the script, with no
		// verb in flight between steps, flips it to put both repair
		// modes through one fleet.
		x.s.core.deferReprotect = x.rng.Intn(2) == 0
		return "defer re-protect on/off"
	default:
		x.drain()
		return "drain"
	}
}

// TestReverseIndexesEqualRecomputation: through 2 500 seeded steps of
// every verb that commits to the indexes, at one shard and at four, each
// shard's posting lists, owed set and per-deployment index records equal
// their recomputation from the deployment records after every step.
func TestReverseIndexesEqualRecomputation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			topo := benchFleetTopo(t, 48)
			s := newTestSet(t, Config{Topo: topo, Wavelengths: 64}, shards)
			x := &indexScript{t: t, rng: rand.New(rand.NewSource(int64(23 + shards))), s: s, topo: topo,
				pms: topo.NodeIDs(topology.KindPhysicalMachine)}
			verbs := make(map[string]int)
			for step := 0; step < 2500; step++ {
				verb := x.step()
				verbs[verb]++
				for i := 0; i < shards; i++ {
					if bad := auditIndexes(s.Shard(i)); len(bad) > 0 {
						t.Fatalf("step %d (%s), shard %d: %d differences, first: %s", step, verb, i, len(bad), bad[0])
					}
				}
			}
			for _, verb := range []string{"provision", "recover", "delete", "modify", "move", "scale", "fail node", "fail link",
				"fail batch", "re-protect", "re-protect group", "re-home", "drain"} {
				if verbs[verb] < 20 {
					t.Errorf("the script ran %q %d times", verb, verbs[verb])
				}
			}
			ops := 0
			for i := 0; i < shards; i++ {
				ops += s.Shard(i).nodeIndex.ops + s.Shard(i).linkIndex.ops
			}
			t.Logf("%d chains provisioned, %d posting insertions and removals, verbs %v", x.next, ops, verbs)
		})
	}
}

// TestIndexAuditFires: each corruption of a structure the auditor guards
// — a posting taken out, a stray one put in, a list out of order, an
// empty list left behind, a chain missing from the owed set, a stale
// per-deployment record, a free list past its bound — is reported.
func TestIndexAuditFires(t *testing.T) {
	for name, corrupt := range map[string]func(o *Orchestrator, dep *Deployment){
		"posting removed": func(o *Orchestrator, dep *Deployment) {
			o.nodeIndex.remove(dep.Path[2], dep.ID)
		},
		"stray posting": func(o *Orchestrator, dep *Deployment) {
			o.linkIndex.add(dep.primaryLinks[0], dep.ID+100)
		},
		"list out of order": func(o *Orchestrator, dep *Deployment) {
			shared := dep.Path[1] // the PM both chains' endpoints live on
			slices.Reverse(o.nodeIndex.of(shared))
		},
		"empty list kept": func(o *Orchestrator, dep *Deployment) {
			o.linkIndex.lists = append(o.linkIndex.lists, new([]DeploymentID))
		},
		"owed chain unfiled": func(o *Orchestrator, dep *Deployment) {
			dep.Drifted = true
		},
		"stale index record": func(o *Orchestrator, dep *Deployment) {
			dep.idxLinks = dep.idxLinks[1:]
		},
		"free list past its bound": func(o *Orchestrator, dep *Deployment) {
			for len(o.nodeIndex.free) <= maxFreeLists {
				o.nodeIndex.free = append(o.nodeIndex.free, new([]DeploymentID))
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			_, o := newTestOrch(t, Config{Topo: benchFleetTopo(t, 8)})
			for i := 0; i < 3; i++ {
				if _, err := o.Provision(bg, residentSpec(t, i, "t")); err != nil {
					t.Fatalf("Provision: %v", err)
				}
			}
			if bad := auditIndexes(o); len(bad) > 0 {
				t.Fatalf("a fresh fleet audits dirty: %v", bad)
			}
			dep := o.deployments[2]
			if got := o.indexed(dep.Path[1]); len(got) < 2 {
				t.Fatalf("node %d is indexed for %v, want a shared one", dep.Path[1], got)
			}
			corrupt(o, dep)
			if bad := auditIndexes(o); len(bad) == 0 {
				t.Fatal("the audit reports nothing")
			}
		})
	}
}

// TestReProtectCommitCostsTheStandby: committing a re-protection touches
// the posting lists of the standby's own nodes and links, the same number
// when the chain's slice and path are four times longer — and a chain
// re-committing the footprint it already has touches none.
func TestReProtectCommitCostsTheStandby(t *testing.T) {
	commitOps := func(scale int) int {
		o := newShard(&sharedCore{}, nil, nil, 0, 1)
		dep := &Deployment{ID: 7, Slice: &optical.Slice{}}
		for i := 0; i < 6*scale; i++ {
			dep.Path = append(dep.Path, topology.NodeID(100+i))
			dep.primaryLinks = append(dep.primaryLinks, topology.LinkID(100+i))
		}
		for i := 0; i < 3*scale; i++ {
			dep.Slice.OPSs = append(dep.Slice.OPSs, topology.NodeID(1000+i))
		}
		dep.Placement.Hosts = []topology.NodeID{dep.Path[2], 2000}
		commit := func() int {
			before := o.nodeIndex.ops + o.linkIndex.ops
			dep.idxNodes = o.nodeIndex.retarget(dep.ID, dep.idxNodes, dep.footprint())
			dep.idxLinks = o.linkIndex.retarget(dep.ID, dep.idxLinks, dep.linkFootprint(dep.primaryLinks))
			return o.nodeIndex.ops + o.linkIndex.ops - before
		}
		if first, again := commit(), commit(); first != len(dep.idxNodes)+len(dep.idxLinks) || again != 0 {
			t.Fatalf("scale %d: the first commit cost %d operations for %d postings, the same footprint again %d",
				scale, first, len(dep.idxNodes)+len(dep.idxLinks), again)
		}
		// Five nodes and four links, of which the standby shares the
		// path's two ends, a host and one link with the primary side.
		sb := &resilience.Standby{
			Path:     []topology.NodeID{dep.Path[0], 2000, 3001, 3002, dep.Path[len(dep.Path)-1]},
			Links:    []topology.LinkID{dep.primaryLinks[0], 4001, 4002, 4003},
			Disjoint: true,
		}
		before := o.nodeIndex.ops + o.linkIndex.ops
		o.setStandbyLocked(dep, sb)
		gained := o.nodeIndex.ops + o.linkIndex.ops - before
		if !sameSet(dep.idxNodes, dep.footprint()) || !sameSet(dep.idxLinks, dep.linkFootprint(dep.primaryLinks)) {
			t.Fatalf("scale %d: the standby commit left idxNodes %v, idxLinks %v", scale, dep.idxNodes, dep.idxLinks)
		}
		o.setStandbyLocked(dep, nil)
		if lost := o.nodeIndex.ops + o.linkIndex.ops - before - gained; lost != gained {
			t.Fatalf("scale %d: gaining the standby cost %d operations, losing it %d", scale, gained, lost)
		}
		// The lists it emptied are the ones it fills next time.
		if allocs := testing.AllocsPerRun(10, func() { o.setStandbyLocked(dep, sb); o.setStandbyLocked(dep, nil) }); allocs != 0 {
			t.Fatalf("scale %d: gaining and losing a standby allocates %.0f times", scale, allocs)
		}
		return gained
	}
	small, large := commitOps(1), commitOps(4)
	if small != 5 || large != small {
		t.Fatalf("a re-protect commit costs %d index operations, %d on a chain four times the size: want 5 (2 nodes, 3 links) both times", small, large)
	}
}

// stormFleet is the benchmark's failure_storm fleet in process: 160
// chains spread evenly over four shards of a 168-OPS pool, repairs
// leaving re-protection to the caller as they do under an optimizer.
func stormFleet(tb testing.TB) (*Sharded, *topology.Topology) {
	topo := benchFleetTopo(tb, 168)
	s := newTestSet(tb, Config{Topo: topo, DeferReprotect: true}, 4)
	router := NewShardRouter(4, ShardByTenant)
	for i, salt := 0, 0; i < 160; i++ {
		spec := residentSpec(tb, i, fmt.Sprintf("t%d", salt))
		for router.ShardForSpec(spec) != i%4 {
			salt++
			spec.Tenant = fmt.Sprintf("t%d", salt)
		}
		salt++
		if _, err := s.Provision(bg, spec); err != nil {
			tb.Fatalf("Provision %d: %v", i, err)
		}
	}
	return s, topo
}

// transitLinks returns the path's ToR↔OPS links: what a tray cut takes.
func transitLinks(tb testing.TB, topo *topology.Topology, path []topology.NodeID) (out []topology.LinkID) {
	links, err := resilience.PathLinks(topo, path)
	if err != nil {
		tb.Fatalf("PathLinks: %v", err)
	}
	for _, l := range links {
		if topo.Link(l).Kind == topology.LinkBoundary {
			out = append(out, l)
		}
	}
	return out
}

// BenchmarkStormRound is one failure_storm round without the HTTP shell:
// a tray cut through eight chains' primary entry and standby exit links,
// the reconcile pass, the group re-protection, every link's recovery and
// the refresh of the eight standbys. allocs/op is allocations a round.
func BenchmarkStormRound(b *testing.B) {
	s, topo := stormFleet(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tray []topology.LinkID
		var victims []DeploymentID
		for v := 0; v < 8; v++ {
			id := DeploymentID(1 + (i*8+v)%160)
			s.ViewDeployment(id, func(dep *Deployment) {
				prim, stby := transitLinks(b, topo, dep.Path), transitLinks(b, topo, dep.Standby.Path)
				tray = appendUnseen(tray, []topology.LinkID{prim[0], stby[len(stby)-1]})
			})
			victims = append(victims, id)
		}
		reports, err := s.HandleFailures(ctx, topology.NewFailures(nil, tray))
		if err != nil || len(reports) < len(victims) {
			b.Fatalf("round %d: %d reports, %v", i, len(reports), err)
		}
		s.ReProtectGroup(nil, FailureDomain{Batch: 1}, RepairedIDs(reports))
		for _, l := range tray {
			if err := s.Recover(topology.NewFailures(nil, []topology.LinkID{l})); err != nil {
				b.Fatalf("Recover: %v", err)
			}
		}
		for _, rep := range reports {
			if out := reProtect(s, rep.ID); out.Err != nil || out.Standby == nil {
				b.Fatalf("round %d: chain %d left unprotected: %v", i, rep.ID, out.Err)
			}
		}
	}
}
