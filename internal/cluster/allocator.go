package cluster

import (
	"fmt"
	"sort"
	"sync"

	"github.com/alvc/alvc/internal/topology"
)

// VCID identifies a virtual cluster.
type VCID int

// VC is a virtual cluster: a group of VMs offering one service plus the
// abstraction layer that connects them (§III, Fig. 3). In the NFV use
// case one VC hosts exactly one network function chain (§IV-C).
type VC struct {
	ID      VCID
	Service string
	VMs     []topology.NodeID
	AL      AL
}

// Allocator owns the OPS→AL assignment and enforces the paper's
// disjointness rule: one OPS cannot be part of two ALs at the same
// time. It is safe for concurrent use.
type Allocator struct {
	mu      sync.Mutex
	topo    *topology.Topology
	builder Builder
	vcs     map[VCID]*VC
	// nextID and idStride number the clusters: allocator i of n issues
	// i+1, i+1+n, i+1+2n, …, so allocators over disjoint pools never issue
	// one ID twice.
	nextID, idStride VCID
	// pool, when its set is non-nil, restricts this allocator to a subset
	// of the topology's OPSs, so AL construction (the cover under mu) works
	// on a smaller candidate set and two allocators with disjoint pools
	// never contend on membership. Orchestrator shards use this to
	// partition the OPS space. The zero Pool means the whole topology.
	pool     topology.Pool
	poolSize int
	// free marks, by node ID, the pool minus the clusters' OPSs: what the
	// builder may claim, in the dense form the paper's builder reads. It is
	// kept in step on every claim and release, so a build costs the cover
	// and not a pool-sized set construction.
	free []bool
	// cover counts how the paper builder's phase 2 was answered.
	cover CoverStats
	// phase1 is the paper builder's phase-1 scratch.
	phase1 phase1Scratch
}

// NewRestrictedAllocator returns an allocator that only claims OPSs
// from the given pool. A nil pool means every OPS in the topology; an
// empty (non-nil) pool is rejected since no AL could ever be built. It
// is allocator i of n (0 of 1 when alone): it issues VC IDs i+1,
// i+1+n, …, so an ID names one cluster among all n.
func NewRestrictedAllocator(topo *topology.Topology, builder Builder, pool []topology.NodeID, i, n int) (*Allocator, error) {
	if topo == nil {
		return nil, fmt.Errorf("cluster: allocator: nil topology")
	}
	if builder == nil {
		return nil, fmt.Errorf("cluster: allocator: nil builder")
	}
	a := &Allocator{
		topo:     topo,
		builder:  builder,
		vcs:      make(map[VCID]*VC),
		nextID:   VCID(i + 1 - n),
		idStride: VCID(n),
	}
	a.free = make([]bool, len(topo.OpticalDegrees())) // one entry per node ID
	if pool != nil {
		if len(pool) == 0 {
			return nil, fmt.Errorf("cluster: allocator: empty OPS pool")
		}
		for _, ops := range pool {
			n := a.topo.Node(ops)
			if n == nil || n.Kind != topology.KindOPS {
				return nil, fmt.Errorf("cluster: allocator: pool node %d is not an OPS", ops)
			}
			a.free[ops] = true
		}
		set := topology.NewNodeSet(pool...)
		a.pool, a.poolSize = topology.NewPool(set), len(set)
	} else {
		for _, n := range topo.Nodes(topology.KindOPS) {
			a.free[n.ID] = true
			a.poolSize++
		}
	}
	return a, nil
}

// PoolSize returns the number of OPSs this allocator may claim (the
// whole topology when unrestricted).
func (a *Allocator) PoolSize() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.poolSize
}

// Pool returns the restriction set this allocator was built with, its
// digest computed once at construction, or the zero Pool when it may
// claim any OPS. The set is the allocator's own (it is immutable after
// construction) — callers must treat it as read-only. Orchestrator
// shards pass it to path planners so standby routes stay inside the
// shard's partition.
func (a *Allocator) Pool() topology.Pool {
	return a.pool
}

// AvailableOPS returns the set of OPSs not owned by any AL. The set is
// the caller's.
func (a *Allocator) AvailableOPS() topology.NodeSet {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.freeSetLocked()
}

// freeSetLocked returns the free OPSs as a set of the caller's own.
func (a *Allocator) freeSetLocked() topology.NodeSet {
	set := topology.NodeSet{}
	for ops, free := range a.free {
		if free {
			set = append(set, topology.NodeID(ops))
		}
	}
	return set
}

// vcBlock is a VC with its VMs, ToRs and OPSs in one array of nodes.
type vcBlock[A any] struct {
	vc    VC
	nodes A
}

// newVC returns the cluster of vms over al, its three lists copied into
// one array, each clipped: in a 256-byte block with the record when
// they fit one — the benchmark fleets' sixteen-VM service does — else
// in an array of their own.
func newVC(id VCID, service string, vms []topology.NodeID, al AL) *VC {
	n := len(vms) + len(al.ToRs) + len(al.OPSs)
	var vc *VC
	var room []topology.NodeID
	if n <= len(vcBlock[[20]topology.NodeID]{}.nodes) {
		b := new(vcBlock[[20]topology.NodeID])
		vc, room = &b.vc, b.nodes[:0]
	} else {
		vc, room = new(VC), make([]topology.NodeID, 0, n)
	}
	room = append(append(append(room, vms...), al.ToRs...), al.OPSs...)
	v, t := len(vms), len(vms)+len(al.ToRs)
	*vc = VC{ID: id, Service: service, VMs: room[:v:v], AL: AL{ToRs: room[v:t:t], OPSs: room[t:n:n]}}
	return vc
}

// setALLocked stores vc under its ID, moving OPS ownership from the
// layer the ID held before (if any) to vc's.
func (a *Allocator) setALLocked(vc *VC) {
	if old := a.vcs[vc.ID]; old != nil {
		for _, ops := range old.AL.OPSs {
			a.free[ops] = true
		}
	}
	for _, ops := range vc.AL.OPSs {
		a.free[ops] = false
	}
	a.vcs[vc.ID] = vc
}

// buildLocked builds a layer for vms out of the free OPSs. The paper's
// builder reads the allocator's mask as it is, and its layer is good
// until the next build; the baseline builders take a set.
func (a *Allocator) buildLocked(vms []topology.NodeID) (AL, error) {
	if p, ok := a.builder.(PaperBuilder); ok && !p.StaticWeight {
		return buildMarginal(a.topo, vms, a.free, &a.cover, &a.phase1)
	}
	return a.builder.Build(a.topo, vms, a.freeSetLocked())
}

// CoverStats returns the counts of the paper builder's phase-2 answers
// over this allocator's builds and patches.
func (a *Allocator) CoverStats() CoverStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cover
}

// BuildVC constructs a virtual cluster for the given VM group, claiming
// the OPSs of its new AL. It fails (wrapping ErrInsufficientOPS) when
// the unclaimed OPSs cannot connect the group.
func (a *Allocator) BuildVC(service string, vms []topology.NodeID) (*VC, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	al, err := a.buildLocked(vms)
	if err != nil {
		return nil, fmt.Errorf("cluster: build VC for %q: %w", service, err)
	}
	a.nextID += a.idStride
	vc := newVC(a.nextID, service, vms, al)
	a.setALLocked(vc)
	return vc, nil
}

// BuildAllByService groups the topology's VMs by service (sorted by
// service name) and builds one VC per service. On failure, clusters
// already built in this call are released so the allocator state is
// unchanged.
func (a *Allocator) BuildAllByService() ([]*VC, error) {
	byService := a.topo.VMsByService()
	names := make([]string, 0, len(byService))
	for name := range byService {
		names = append(names, name)
	}
	sort.Strings(names)
	var built []*VC
	for _, name := range names {
		vc, err := a.BuildVC(name, byService[name])
		if err != nil {
			for _, b := range built {
				_ = a.Release(b.ID)
			}
			return nil, fmt.Errorf("cluster: build all: %w", err)
		}
		built = append(built, vc)
	}
	return built, nil
}

// PatchVC re-runs the AL construction for an existing cluster over the
// broken portion only: the builder may reuse the cluster's own
// surviving (live) OPSs plus whatever the pool has free, so a single
// failed switch typically swaps one OPS instead of dissolving the
// layer. The VC keeps its ID; ownership moves atomically from the old
// membership to the new. The vms argument is the current live VM group
// to cover (callers pass their liveness-filtered view). On error the
// allocator is unchanged.
//
// A fresh VC record is returned (and stored) rather than mutating the
// old one in place, so snapshots handed out before the patch stay
// immutable.
func (a *Allocator) PatchVC(id VCID, vms []topology.NodeID) (*VC, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	vc, ok := a.vcs[id]
	if !ok {
		return nil, fmt.Errorf("cluster: patch: unknown VC %d", id)
	}
	// Lend the cluster's own live OPSs to the free set for the build.
	for _, ops := range vc.AL.OPSs {
		if n := a.topo.Node(ops); n != nil && !n.Down {
			a.free[ops] = true
		}
	}
	al, err := a.buildLocked(vms)
	if err != nil {
		for _, ops := range vc.AL.OPSs {
			a.free[ops] = false
		}
		return nil, fmt.Errorf("cluster: patch VC %d: %w", id, err)
	}
	patched := newVC(id, vc.Service, vms, al)
	a.setALLocked(patched)
	return patched, nil
}

// Release dissolves the cluster and frees its OPSs.
func (a *Allocator) Release(id VCID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	vc, ok := a.vcs[id]
	if !ok {
		return fmt.Errorf("cluster: release: unknown VC %d", id)
	}
	for _, ops := range vc.AL.OPSs {
		a.free[ops] = true
	}
	delete(a.vcs, id)
	return nil
}

// VCs returns all clusters sorted by ID.
func (a *Allocator) VCs() []*VC {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*VC, 0, len(a.vcs))
	for _, vc := range a.vcs {
		out = append(out, vc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// VCCount returns the number of clusters built and not released.
func (a *Allocator) VCCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.vcs)
}

// Disjoint reports whether the clusters' ALs are pairwise disjoint — the
// invariant property tests assert after arbitrary build/release
// sequences, over one allocator's VCs or a whole fleet's.
func Disjoint(vcs []*VC) bool {
	owner := make(map[topology.NodeID]VCID)
	for _, vc := range vcs {
		for _, ops := range vc.AL.OPSs {
			if prev, dup := owner[ops]; dup && prev != vc.ID {
				return false
			}
			owner[ops] = vc.ID
		}
	}
	return true
}
