// The orchestrator is a shard set: N shards over one shared physical
// substrate (N = 1 is the degenerate case, one shard owning the whole
// pool). A shard is this package's own: callers see the set, Sharded,
// whose verbs route a chain to the shard that issued its ID. Each shard
// owns its own deployment map, reverse node/link→deployment indexes,
// flow-key reservations, busy guards, SDN flow tables and — critically
// for throughput — its own cluster allocator over a disjoint partition
// of the OPS pool, so the vertex-cover search that dominates
// provisioning (the single global allocator mutex was the measured lock
// convoy under concurrent load) runs on an n-times smaller candidate set
// with zero cross-shard contention.
// The topology, its epoch-keyed routing snapshots, the capacity ledger
// and the wavelength allocator stay shared: they are physical truth and
// must be globally consistent.
//
// This is the domain decomposition of Bhamare et al.'s multi-cloud SFC
// placement mapped onto one data center: a tenant (or a rack-pod-style
// hash of the chain ID) is a placement domain, and cross-domain
// operations — batch failure handling, fleet metrics, optimizer status
// — visit the domains in turn on the caller's goroutine and merge.
package orch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync/atomic"
	"time"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/nfv"
	"github.com/alvc/alvc/internal/optical"
	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/sdn"
	"github.com/alvc/alvc/internal/spare"
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
)

// ShardMode selects what the router hashes to pick a shard.
type ShardMode int

const (
	// ShardByTenant (the default) routes every chain of a tenant to the
	// same shard: tenant isolation maps one-to-one onto state isolation,
	// and a tenant's chains never contend with another tenant's for the
	// shard lock.
	ShardByTenant ShardMode = iota
	// ShardByChain routes on the full flow key (tenant/name), spreading
	// even a single giant tenant across all shards — the rack-pod-style
	// decomposition, trading tenant locality for uniform load.
	ShardByChain
)

// String returns the mode name.
func (m ShardMode) String() string {
	switch m {
	case ShardByTenant:
		return "tenant"
	case ShardByChain:
		return "chain"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ShardRouter maps specs and deployment IDs to shard indexes. Routing
// is pure arithmetic over immutable fields, so it needs no lock:
// specs hash (FNV-1a) on tenant or flow key, and deployment IDs decode
// their issuing shard from the ID-stride scheme ((id-1) mod n).
type ShardRouter struct {
	n    int
	mode ShardMode
}

// NewShardRouter returns a router over n shards (n < 1 is treated as
// 1) in the given mode.
func NewShardRouter(n int, mode ShardMode) ShardRouter {
	if n < 1 {
		n = 1
	}
	return ShardRouter{n: n, mode: mode}
}

// Shards returns the shard count.
func (r ShardRouter) Shards() int { return r.n }

// ShardForSpec returns the shard owning the spec: ShardByTenant hashes
// the tenant, ShardByChain the tenant/name flow key. A valid spec's
// tenant holds no "/" (chain.Spec.Validate), so equal flow keys have
// equal tenants and land on one shard in either mode — which is what
// makes each shard's local flow-key map a global uniqueness check.
func (r ShardRouter) ShardForSpec(spec chain.Spec) int {
	if r.n == 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(spec.Tenant))
	if r.mode == ShardByChain {
		_, _ = h.Write([]byte{'/'})
		_, _ = h.Write([]byte(spec.Name))
	}
	return int(h.Sum32() % uint32(r.n))
}

// ShardOf returns the shard that issued the given deployment ID
// (shard s of n issues IDs s+1, s+1+n, …). Non-positive IDs — never
// issued — map to shard 0 so lookups fail with the shard's own
// ErrUnknownDeployment instead of an index panic.
func (r ShardRouter) ShardOf(id DeploymentID) int {
	if id <= 0 {
		return 0
	}
	return int(id-1) % r.n
}

// Sharded is the orchestrator: per-deployment verbs routed to the owning
// shard, fleet-wide operations — failure batches, recoveries, batch
// provisioning, hooks — done once on the shared core or fanned out over
// all shards and merged.
type Sharded struct {
	core   *sharedCore
	router ShardRouter
	shards []*shard
	round  atomic.Pointer[failureRound] // HandleFailures' scratch between calls
}

// New builds the orchestrator: n shards (n < 1 is treated as 1) over
// one shared core, partitioning the topology's OPSs round-robin (in ID
// order) into n disjoint allocator pools; one shard owns the whole pool.
// Shard s issues deployment and VC IDs s+1, s+1+n, …
func New(cfg Config, n int, mode ShardMode) (*Sharded, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("orch: nil topology")
	}
	if n < 1 {
		n = 1
	}
	opss := cfg.Topo.NodeIDs(topology.KindOPS)
	if n > 1 && len(opss) < n {
		return nil, fmt.Errorf("orch: %d shards need at least %d OPSs, topology has %d",
			n, n, len(opss))
	}
	core, err := newSharedCore(cfg)
	if err != nil {
		return nil, fmt.Errorf("orch: %w", err)
	}
	builder := cfg.Builder
	if builder == nil {
		builder = cluster.PaperBuilder{}
	}
	s := &Sharded{
		core:   core,
		router: NewShardRouter(n, mode),
		shards: make([]*shard, n),
	}
	for i := 0; i < n; i++ {
		var pool []topology.NodeID
		if n > 1 {
			// Round-robin over the ID-sorted OPS list: pool sizes differ
			// by at most one and stay deterministic across runs.
			for j := i; j < len(opss); j += n {
				pool = append(pool, opss[j])
			}
		}
		alloc, err := cluster.NewRestrictedAllocator(cfg.Topo, builder, pool, i, n)
		if err != nil {
			return nil, fmt.Errorf("orch: shard %d: %w", i, err)
		}
		ctrl, err := sdn.NewController(cfg.Topo)
		if err != nil {
			return nil, fmt.Errorf("orch: shard %d: %w", i, err)
		}
		s.shards[i] = newShard(core, alloc, ctrl, i, n)
	}
	return s, nil
}

// Shard returns the i-th shard. Only the repository benchmark's tracer
// (benchmark/tracer.go) calls it, for a shard's Allocator and the
// shared Manager: a caller reaches a chain's shard by its ID
// (ControllerOf) and what every shard shares through the set (Manager,
// Slices, WDM).
func (s *Sharded) Shard(i int) *shard { return s.shards[i] }

// ShardOf returns the shard index owning the deployment ID.
func (s *Sharded) ShardOf(id DeploymentID) int { return s.router.ShardOf(id) }

func (s *Sharded) owner(id DeploymentID) *shard {
	return s.shards[s.router.ShardOf(id)]
}

// Manager exposes the Cloud/NFV manager every shard shares.
func (s *Sharded) Manager() *nfv.Manager { return s.core.mgr }

// Slices exposes the optical slice manager every shard shares.
func (s *Sharded) Slices() *optical.SliceManager { return s.core.slices }

// WDM exposes the wavelength allocator every shard shares (nil when
// disabled).
func (s *Sharded) WDM() *optical.WDM { return s.core.wdm }

// BuildServiceClusters constructs one virtual cluster per service
// (paper §III, Fig. 1/3) — the pure clustering use of AL-VC, without
// chains — out of shard 0's OPS partition, which chains provisioned
// there claim from too. On failure nothing stays built.
func (s *Sharded) BuildServiceClusters() ([]*cluster.VC, error) {
	o := s.shards[0]
	vcs, err := o.alloc.BuildAllByService()
	if err != nil {
		return nil, fmt.Errorf("orch: %w", err)
	}
	o.mu.Lock()
	for _, vc := range vcs {
		o.serviceVCs[vc.ID] = true
	}
	o.mu.Unlock()
	return vcs, nil
}

// ReleaseCluster dissolves a cluster BuildServiceClusters built, routed
// by its ID (allocators stride VC IDs as shards stride deployment IDs).
// It refuses any other ID and changes nothing: a chain's cluster is its
// abstraction layer, whose OPSs must not go back to the free pool while
// the chain holds them (one OPS serves one AL, §III).
func (s *Sharded) ReleaseCluster(id cluster.VCID) error {
	o := s.owner(DeploymentID(id))
	o.mu.Lock()
	built := o.serviceVCs[id]
	delete(o.serviceVCs, id)
	o.mu.Unlock()
	if !built {
		return fmt.Errorf("orch: release cluster %d: not a service cluster (a chain's leaves with the chain)", id)
	}
	return o.alloc.Release(id)
}

// Clusters returns every shard's virtual clusters — service clusters
// and chain-backing ones alike — sorted by ID. The IDs are fleet-unique:
// allocator s of n issues s+1, s+1+n, ….
func (s *Sharded) Clusters() []*cluster.VC {
	var out []*cluster.VC
	for _, o := range s.shards {
		out = append(out, o.alloc.VCs()...)
	}
	slices.SortFunc(out, func(a, b *cluster.VC) int { return int(a.ID - b.ID) })
	return out
}

// Provision routes the spec to its shard and deploys the chain there,
// end to end (paper §IV): virtual cluster, optical slice, VNF placement
// and instantiation, SDN path. On any failure all partial state is
// rolled back and the orchestrator is unchanged. Safe for concurrent
// use: independent specs provision in parallel (see also
// ProvisionBatch), serialized only at the shared resource pools. With a
// tracer attached it records a "provision" span — a child of the span in
// ctx (the server's per-request root) when one is there, the root of a
// fresh trace otherwise — with every executed pipeline stage as a child
// span. The spans go up with the request's, or, with no traced operation
// around the provision, to the store in one insert.
func (s *Sharded) Provision(ctx context.Context, spec chain.Spec) (*Deployment, error) {
	o := s.shards[s.router.ShardForSpec(spec)]
	tr := s.core.hooks.Load().Tracer
	if tr == nil {
		return o.provision(ctx, spec)
	}
	parent, _ := trace.FromContext(ctx)
	c := carriers.Get()
	tr.Begin(c, ctx, parent)
	start := time.Now()
	dep, err := o.provision(c, spec)
	sp := trace.Span{Parent: parent.SpanID, Name: "provision", Kind: trace.KindProvision, Start: start, End: time.Now()}
	sp.SetError(err)
	if dep != nil {
		sp.Dep = int(dep.ID)
	}
	tr.End(c, sp)
	*c = trace.Carrier{}
	carriers.Put(c)
	return dep, err
}

// carriers pools the carriers of traced provisions: none outlives its
// End (events carry trace and span IDs, not the carrier).
var carriers spare.Pool[trace.Carrier]

// BatchResult is the outcome of one spec in a ProvisionBatch call.
// Exactly one of Deployment and Err is set.
type BatchResult struct {
	// Index is the spec's position in the submitted batch.
	Index int
	// Deployment is the provisioned chain on success.
	Deployment *Deployment
	// Err is the provisioning failure, nil on success.
	Err error
}

// ProvisionBatch provisions independent specs one after another, in
// input order on the caller's goroutine, one result per spec. Individual
// failures do not abort the batch: each failed spec is rolled back
// exactly as a lone Provision would be, and reported in its
// BatchResult. Intra-batch flow-key duplicates are rejected up front,
// each naming its key's first spec, whatever that spec's outcome;
// cross-request duplicates are caught by the owning shard (same key →
// same shard, always).
func (s *Sharded) ProvisionBatch(specs []chain.Spec) []BatchResult {
	results := make([]BatchResult, len(specs))
	if len(specs) == 0 {
		return results
	}
	// In flow-key order each key's first spec comes first, its duplicates after.
	order := make([]int, 0, 32) // on the stack up to 32 specs
	for i := range specs {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int { return compareFlowKeys(&specs[a], &specs[b]) })
	first := order[0]
	for _, i := range order[1:] {
		if compareFlowKeys(&specs[i], &specs[first]) != 0 {
			first = i
			continue
		}
		results[i] = BatchResult{Index: i, Err: fmt.Errorf(
			"orch: batch: spec %d duplicates flow key %q of spec %d",
			i, specs[i].Tenant+"/"+specs[i].Name, first)}
	}
	for i := range specs {
		if results[i].Err != nil {
			continue
		}
		dep, err := s.Provision(context.Background(), specs[i])
		results[i] = BatchResult{Index: i, Deployment: dep, Err: err}
	}
	return results
}

// compareFlowKeys orders specs as their flow keys, Tenant+"/"+Name,
// order, joining the keys on the stack.
func compareFlowKeys(a, b *chain.Spec) int {
	var ka, kb [64]byte
	return bytes.Compare(appendFlowKey(ka[:0], a), appendFlowKey(kb[:0], b))
}

func appendFlowKey(buf []byte, s *chain.Spec) []byte {
	return append(append(append(buf, s.Tenant...), '/'), s.Name...)
}

// Delete tears a deployment down: flow rules removed, VNFs terminated,
// slice and cluster released. The record leaves its shard — a Tombstone
// in a fixed ring is what the shard remembers of it — and is returned as
// the deployment's final record (state deleted). With a tracer attached
// it records a "delete" span under the span in ctx.
func (s *Sharded) Delete(ctx context.Context, id DeploymentID) (*Deployment, error) {
	o := s.owner(id)
	tr := s.core.hooks.Load().Tracer
	if tr == nil {
		return o.delete(id, "")
	}
	parent, _ := trace.FromContext(ctx)
	sc := tr.Start(parent)
	start := time.Now()
	final, err := o.delete(id, sc.TraceID)
	sp := trace.Span{Parent: parent.SpanID, Name: "delete", Kind: trace.KindDelete, Start: start, End: time.Now()}
	// A refused delete of a chain that is already gone must not give it
	// a per-chain index entry in the trace store again.
	if !errors.Is(err, ErrUnknownDeployment) && !errors.Is(err, ErrNotActive) {
		sp.Dep = int(id)
	}
	sp.SetError(err)
	tr.Record(sc, sp)
	return final, err
}

// Apply makes one edit to a deployed chain (§IV-B: modification,
// upgradation, scaling, a VNF's move, a rebuild, and the optimizer's
// re-home and λ-defrag) under its exclusive claim, so a concurrent
// Delete, repair or edit surfaces as ErrBusy instead of meeting a
// half-made edit, and answers what it did (Applied). No edit writes what
// a snapshot shares: a new bandwidth stores a fresh slice record. A move
// or a re-home is transactional: the record changes only once the new
// path, wavelength and rules are in place, and a failure moves the
// instances back, so an error never leaves the placement and the
// installed rules disagreeing.
//
// Events follow one rule, emitted after the edit released its locks: a
// chain rebuilt in place — by ChangeRebuild, or by a move-back that was
// impossible — emits EventRepairCompleted (rebuilt), one whose VNFs
// moved EventPlacementChanged, and the other edits nothing.
func (s *Sharded) Apply(id DeploymentID, c Change) (Applied, error) {
	res, err := s.owner(id).apply(id, c)
	switch {
	case res.Rebuilt:
		// With the optimizer attached the rebuild deferred its standby, so
		// the re-protection must be enqueued like any other repair's.
		s.core.emit(Event{Kind: EventRepairCompleted, Deployment: id, Action: ActionRebuilt})
	case res.Moved:
		s.core.emit(Event{Kind: EventPlacementChanged, Deployment: id})
	}
	return res, err
}

// ViewDeployment calls fn with the owning shard's live record of the
// deployment, under the shard lock, and reports whether there is one —
// false for an ID never issued or deleted (see Tombstone). fn reads the
// record where it lies: it must not keep dep or anything dep points to,
// call back into the orchestrator, or block.
func (s *Sharded) ViewDeployment(id DeploymentID, fn func(dep *Deployment)) bool {
	o := s.owner(id)
	o.mu.Lock()
	defer o.mu.Unlock()
	dep, ok := o.deployments[id]
	if ok {
		fn(dep)
	}
	return ok
}

// ViewDeployments shows fn every shard's records, shard by shard and in
// ID order within each: one shard lock at a time, so the view is
// point-in-time per shard, not across them. ViewDeployment's rules for
// fn apply.
func (s *Sharded) ViewDeployments(fn func(dep *Deployment)) {
	for _, sh := range s.shards {
		sh.viewDeployments(fn)
	}
}

// Deployment returns a snapshot of the deployment, or nil when no shard
// holds a record of it — never issued, or deleted (see Tombstone).
func (s *Sharded) Deployment(id DeploymentID) (cp *Deployment) {
	s.ViewDeployment(id, func(dep *Deployment) { cp = snapshot(dep) })
	return cp
}

// Deployments returns snapshots of every shard's deployments sorted by
// ID, for callers that keep the records: each copies the record, its
// Instances, Path and Standby, and shares Spec.NFs, Placement's lists (in
// the record's block), VC and Slice with the live record, which a caller
// only reads. Verbs replace those, or copy them first (ownPlacement),
// rather than edit them. Readers that only look use ViewDeployments;
// fleet sweeps that read a few fields use AppendChainHealth or ShardStats.
func (s *Sharded) Deployments() (out []*Deployment) {
	s.ViewDeployments(func(dep *Deployment) { out = append(out, snapshot(dep)) })
	slices.SortFunc(out, func(a, b *Deployment) int { return int(a.ID - b.ID) })
	return out
}

// HandleFailures is the one failure entry point — a node, a link or a
// rack-scale set. It marks the failed resources down once, in one
// topology transaction — the topology and its liveness bits are
// shared-core state — then runs the reconciliation pass on every shard
// in turn, on the caller's goroutine: each shard classifies and
// repairs its own affected deployments against the union of dead
// resources, so a rack failure spanning tenants on different shards
// repairs every affected chain exactly once. A repair is differential
// where it can be: a dead primary link swaps to the standby when one
// survives (zero shortest-path runs) and re-paths cold otherwise, a dead
// host replaces only its VNFs, a dead AL switch patches the AL, and a
// dead standby link merely replans the standby; a chain whose repair is
// impossible goes to the Failed state. Reports merge in ID order; err
// carries the first failed or permanently-busy repair. Every repair
// span joins the trace ctx carries.
//
// Unknown IDs are rejected up front: nothing is marked down and no
// repair runs, so callers can map the error to a 404 without partial
// state.
func (s *Sharded) HandleFailures(ctx context.Context, f topology.Failures) ([]RepairReport, error) {
	if f.Empty() {
		return nil, nil
	}
	r := s.round.Swap(nil)
	if r == nil {
		r = &failureRound{shards: make([]reconcile, len(s.shards))}
	}
	defer s.round.Store(r)
	r.nodes, r.links = append(r.nodes[:0], f.Nodes()...), append(r.links[:0], f.Links()...)
	dead, err := s.core.markFailuresDown(topology.NewFailures(r.nodes, r.links))
	if err != nil {
		return nil, err
	}
	r.ctx, r.dead, r.tr = ctx, dead, s.core.hooks.Load().Tracer
	r.parent, _ = trace.FromContext(ctx)
	for i, o := range s.shards {
		r.shards[i].run(r, o)
	}
	domain := s.core.failureDomain(dead)
	n := 0
	for i := range r.shards {
		n += len(r.shards[i].reports)
	}
	reports := slices.Grow([]RepairReport(nil), n)
	for i := range r.shards {
		s.core.emitRepairEvents(r.shards[i].reports, domain)
		reports = append(reports, r.shards[i].reports...)
		clear(r.shards[i].reports)
	}
	r.ctx, r.dead, r.tr, r.parent = nil, resilience.FailureSet{}, nil, trace.SpanContext{}
	slices.SortFunc(reports, func(a, b RepairReport) int { return int(a.ID - b.ID) })
	return reports, firstRepairError(reports)
}

// Recover marks the set's failed nodes and links live again, as one
// liveness transition, and emits one recovery event per resource.
// Existing deployments are not rebalanced or rerouted back inline: the
// events let an attached background optimizer refresh standbys planned
// around the outage and re-home drifted placements, and new
// deployments may use the resources immediately. An unknown ID rejects
// the whole set.
func (s *Sharded) Recover(f topology.Failures) error {
	c := s.core
	c.topoMu.Lock()
	if err := c.topo.SetDown(f, false); err != nil {
		c.topoMu.Unlock()
		return fmt.Errorf("orch: recover: %w", err)
	}
	c.topoMu.Unlock()
	for _, n := range f.Nodes() {
		c.emit(Event{Kind: EventNodeRecovered, Node: n})
	}
	for _, l := range f.Links() {
		c.emit(Event{Kind: EventLinkRecovered, Link: l})
	}
	return nil
}

// Impact answers the operator-planning question "what breaks if these
// resources die": every active deployment whose footprint includes a
// node or link of the set, with the roles the set plays for it, in ID
// order — straight from each shard's reverse indexes' posting lists, no
// scan, merged (shard entry sets are disjoint by construction). A node
// can be any role; a link is "path" (a primary link) or "standby".
func (s *Sharded) Impact(f topology.Failures) []ImpactEntry {
	var out []ImpactEntry
	for _, sh := range s.shards {
		out = append(out, sh.impact(f)...)
	}
	slices.SortFunc(out, func(a, b ImpactEntry) int { return int(a.ID - b.ID) })
	return out
}

// TopologyJSON serializes the shared topology consistently with
// respect to concurrent failure injection and repair.
func (s *Sharded) TopologyJSON() ([]byte, error) {
	s.core.topoMu.RLock()
	defer s.core.topoMu.RUnlock()
	return json.Marshal(s.core.topo)
}

// ControllerOf returns the SDN controller of the shard owning the
// deployment ID — flow rules live in the owning shard's tables.
func (s *Sharded) ControllerOf(id DeploymentID) *sdn.Controller { return s.owner(id).ctrl }

// ShardStat is one shard's slice of the fleet, exactly as GET /metrics
// serves it: each field is one series labeled with the shard's index,
// read in one walk a scrape (TestShardStatIsServed, internal/telemetry,
// holds the field-to-series map). The protection split and the standby
// fallbacks alone are served summed over shards, as
// alvc_resilience_standby_chains{status} and
// alvc_resilience_standby_fallbacks_total.
type ShardStat struct {
	Shard int
	// Active and Failed count the shard's records; Deleted and Repairs
	// count since start (deleted chains leave the shard, and their
	// repairs stay counted).
	Active, Failed, Deleted, Repairs int
	// StandbyDisjoint, StandbyNonDisjoint and Unprotected split the
	// active chains by protection status; Drifted counts those carrying
	// the Drifted flag.
	StandbyDisjoint, StandbyNonDisjoint, Unprotected, Drifted int
	// Conversions and EnergyJoules sum the O/E/O excursions the active
	// chains' routes pay per flow, and their energy.
	Conversions  int
	EnergyJoules float64
	// OPSPool is the shard's OPS partition and VCs the ALs built on it.
	OPSPool, VCs int
	// PathComputations, YenRuns, InstalledRules and RuleInstalls are the
	// shard controller's shortest-path runs, k-shortest searches, rules in
	// its tables now and rules installed since start.
	PathComputations, YenRuns, InstalledRules, RuleInstalls int
	// CandidateCacheHits and CandidateCacheMisses count the controller's
	// standby segment searches served from the memo and searched.
	CandidateCacheHits, CandidateCacheMisses int64
	// ProvisionOK and ProvisionFailed count provisions by outcome;
	// BusyOps is the exclusive operations in flight.
	ProvisionOK, ProvisionFailed uint64
	BusyOps                      int
	// StandbyFallbacks counts the standby plans that tried the whole
	// fabric after the shard's own pool offered no disjoint route —
	// provisions, repairs and re-protects alike, the optimizer's group
	// members included. Served summed over shards.
	StandbyFallbacks int64
}

// ShardStats returns one entry per shard, in shard order.
func (s *Sharded) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.shardStat()
	}
	return out
}

// shardStat summarizes this shard's deployments and controller load.
func (o *shard) shardStat() ShardStat {
	st := ShardStat{
		Shard:            o.index,
		OPSPool:          o.alloc.PoolSize(),
		VCs:              o.alloc.VCCount(),
		PathComputations: o.ctrl.PathComputations(),
		YenRuns:          o.ctrl.YenRuns(),
		InstalledRules:   o.ctrl.RuleCount(),
		ProvisionOK:      atomic.LoadUint64(&o.provisionOK),
		ProvisionFailed:  atomic.LoadUint64(&o.provisionFail),
		StandbyFallbacks: o.standbyFallbacks.Load(),
	}
	_, st.RuleInstalls = o.ctrl.Stats()
	st.CandidateCacheHits, st.CandidateCacheMisses = o.ctrl.AlternativesCacheStats()
	o.mu.Lock()
	defer o.mu.Unlock()
	st.Deleted, st.Repairs, st.BusyOps = o.deletedTotal, o.repairsTotal, len(o.busy)
	for _, dep := range o.deployments {
		if dep.State != StateActive {
			st.Failed++
			continue
		}
		st.Active++
		switch {
		case dep.Standby == nil:
			st.Unprotected++
		case dep.Standby.Disjoint:
			st.StandbyDisjoint++
		default:
			st.StandbyNonDisjoint++
		}
		if dep.Drifted {
			st.Drifted++
		}
		st.Conversions += dep.Conversions
		st.EnergyJoules += dep.EnergyJoules
	}
	return st
}
