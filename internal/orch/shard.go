// The orchestrator is a shard set: N orchestrator shards over one
// shared physical substrate (N = 1 is the degenerate case, one shard
// owning the whole pool). Each shard owns its own deployment map,
// reverse node/link→deployment indexes, flow-key reservations, busy
// guards, SDN flow tables and — critically for throughput — its own
// cluster allocator over a disjoint partition of the OPS pool, so the
// vertex-cover search that dominates provisioning (the single global
// allocator mutex was the measured lock convoy under concurrent load) runs on
// an n-times smaller candidate set with zero cross-shard contention.
// The topology, its epoch-keyed routing snapshots, the capacity ledger
// and the wavelength allocator stay shared: they are physical truth and
// must be globally consistent.
//
// This is the domain decomposition of Bhamare et al.'s multi-cloud SFC
// placement mapped onto one data center: a tenant (or a rack-pod-style
// hash of the chain ID) is a placement domain, and cross-domain
// operations — batch failure handling, fleet metrics, optimizer status
// — fan out over the domains and merge.
package orch

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/sdn"
	"github.com/alvc/alvc/internal/topology"
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

// ShardForKey returns the shard owning the given tenant/name flow key.
// Both modes derive the shard from the flow key alone, so two specs
// with the same flow key always land on the same shard — which is what
// makes each shard's local flow-key map a global uniqueness check.
func (r ShardRouter) ShardForKey(tenant, name string) int {
	if r.n == 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(tenant))
	if r.mode == ShardByChain {
		_, _ = h.Write([]byte{'/'})
		_, _ = h.Write([]byte(name))
	}
	return int(h.Sum32() % uint32(r.n))
}

// ShardForSpec routes a chain spec.
func (r ShardRouter) ShardForSpec(spec chain.Spec) int {
	return r.ShardForKey(spec.Tenant, spec.Name)
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
	shards []*Orchestrator
}

// New builds the orchestrator: n shards (n < 1 is treated as 1) over
// one shared core, partitioning the topology's OPSs round-robin (in ID
// order) into n disjoint allocator pools; one shard owns the whole pool.
// Config.Allocator cannot be combined with n > 1 — a caller-shared
// allocator would reintroduce exactly the global lock sharding removes.
func New(cfg Config, n int, mode ShardMode) (*Sharded, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("orch: nil topology")
	}
	if n < 1 {
		n = 1
	}
	if cfg.Allocator != nil && n > 1 {
		return nil, fmt.Errorf("orch: a shared Allocator requires shards=1")
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
		shards: make([]*Orchestrator, n),
	}
	for i := 0; i < n; i++ {
		alloc := cfg.Allocator
		if alloc == nil {
			var pool []topology.NodeID
			if n > 1 {
				// Round-robin over the ID-sorted OPS list: pool sizes
				// differ by at most one and stay deterministic across
				// runs.
				for j := i; j < len(opss); j += n {
					pool = append(pool, opss[j])
				}
			}
			alloc, err = cluster.NewRestrictedAllocator(cfg.Topo, builder, pool)
			if err != nil {
				return nil, fmt.Errorf("orch: shard %d: %w", i, err)
			}
		}
		ctrl, err := sdn.NewController(cfg.Topo)
		if err != nil {
			return nil, fmt.Errorf("orch: shard %d: %w", i, err)
		}
		s.shards[i] = newShard(core, alloc, ctrl, i, n)
	}
	return s, nil
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Close ends the set's fan-out workers once each has finished what it
// holds; a later fan-out starts them again.
func (s *Sharded) Close() { s.core.pool.Close() }

// Shard returns the i-th shard, for what only a shard has: its
// Allocator, Controller, and the shared Manager, Slices and WDM.
func (s *Sharded) Shard(i int) *Orchestrator { return s.shards[i] }

// ShardOf returns the shard index owning the deployment ID.
func (s *Sharded) ShardOf(id DeploymentID) int { return s.router.ShardOf(id) }

func (s *Sharded) owner(id DeploymentID) *Orchestrator {
	return s.shards[s.router.ShardOf(id)]
}

// Provision routes the spec to its shard and deploys it there; see
// Orchestrator.Provision.
func (s *Sharded) Provision(ctx context.Context, spec chain.Spec) (*Deployment, error) {
	return s.shards[s.router.ShardForSpec(spec)].Provision(ctx, spec)
}

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

// ProvisionBatch provisions independent specs concurrently across
// shards on the set's pool, workers wide (DefaultBatchWorkers when
// workers <= 0), one result per spec in input order. Individual
// failures do not abort the batch: each failed spec is rolled back
// exactly as a lone Provision would be, and reported in its
// BatchResult. Intra-batch flow-key duplicates are rejected up front —
// a batch must not race against itself for the same SDN flow table
// entry; cross-request duplicates are caught by the owning shard (same
// key → same shard, always).
func (s *Sharded) ProvisionBatch(specs []chain.Spec, workers int) []BatchResult {
	results := make([]BatchResult, len(specs))
	if len(specs) == 0 {
		return results
	}
	seen := make(map[string]int, len(specs))
	dup := make(map[int]int)
	for i, spec := range specs {
		key := spec.Tenant + "/" + spec.Name
		if first, ok := seen[key]; ok {
			dup[i] = first
			continue
		}
		seen[key] = i
	}
	s.core.pool.Run(len(specs), workers, func(i int) {
		if first, ok := dup[i]; ok {
			results[i] = BatchResult{Index: i, Err: fmt.Errorf(
				"orch: batch: spec %d duplicates flow key %q of spec %d",
				i, specs[i].Tenant+"/"+specs[i].Name, first)}
			return
		}
		dep, err := s.Provision(context.Background(), specs[i])
		results[i] = BatchResult{Index: i, Deployment: dep, Err: err}
	})
	return results
}

// Delete routes to the owning shard; see Orchestrator.Delete.
func (s *Sharded) Delete(ctx context.Context, id DeploymentID) (*Deployment, error) {
	return s.owner(id).Delete(ctx, id)
}

// Repair routes to the owning shard.
func (s *Sharded) Repair(id DeploymentID) error { return s.owner(id).Repair(id) }

// Upgrade routes to the owning shard.
func (s *Sharded) Upgrade(id DeploymentID) error { return s.owner(id).Upgrade(id) }

// Modify routes to the owning shard.
func (s *Sharded) Modify(id DeploymentID, bandwidthGbps float64) error {
	return s.owner(id).Modify(id, bandwidthGbps)
}

// ScaleNF routes to the owning shard.
func (s *Sharded) ScaleNF(id DeploymentID, idx, replicas int) error {
	return s.owner(id).ScaleNF(id, idx, replicas)
}

// MoveNF routes to the owning shard.
func (s *Sharded) MoveNF(id DeploymentID, idx int, to topology.NodeID) error {
	return s.owner(id).MoveNF(id, idx, to)
}

// Rehome routes to the owning shard.
func (s *Sharded) Rehome(id DeploymentID, margin int) (bool, error) {
	return s.owner(id).Rehome(id, margin)
}

// DefragLambda routes to the owning shard.
func (s *Sharded) DefragLambda(id DeploymentID) (from, to int, retuned bool, err error) {
	return s.owner(id).DefragLambda(id)
}

// ViewDeployment shows fn the owning shard's live record; see
// Orchestrator.ViewDeployment.
func (s *Sharded) ViewDeployment(id DeploymentID, fn func(dep *Deployment)) bool {
	return s.owner(id).ViewDeployment(id, fn)
}

// ViewDeployments shows fn every shard's records, shard by shard and in
// ID order within each: one shard lock at a time, so the view is
// point-in-time per shard, not across them.
func (s *Sharded) ViewDeployments(fn func(dep *Deployment)) {
	for _, sh := range s.shards {
		sh.ViewDeployments(fn)
	}
}

// Deployment returns a snapshot from the owning shard, or nil.
func (s *Sharded) Deployment(id DeploymentID) *Deployment { return s.owner(id).Deployment(id) }

// Deployments returns snapshots of every shard's deployments sorted by
// ID: a deep copy per chain, for callers that keep the records. Readers
// that only look use ViewDeployments; fleet sweeps that read a few
// fields use AppendChainHealth or ShardStats.
func (s *Sharded) Deployments() (out []*Deployment) {
	s.ViewDeployments(func(dep *Deployment) { out = append(out, snapshot(dep)) })
	slices.SortFunc(out, func(a, b *Deployment) int { return int(a.ID - b.ID) })
	return out
}

// ActiveCount sums active deployments across shards.
func (s *Sharded) ActiveCount() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.ActiveCount()
	}
	return n
}

// HandleFailures is the one failure entry point — a node, a link or a
// rack-scale batch. It marks the failed resources down once, in one
// topology transaction — the topology and its liveness bits are
// shared-core state — then fans the reconciliation pass out over every
// shard concurrently on the set's pool: each shard classifies and
// repairs its own affected deployments against the union of dead
// resources, so a rack failure spanning tenants on different shards
// repairs every affected chain exactly once. Reports merge in ID order;
// err carries the first failed or permanently-busy repair. Every repair
// span joins the trace ctx carries.
//
// Unknown IDs are rejected up front: nothing is marked down and no
// repair runs, so callers can map the error to a 404 without partial
// state.
func (s *Sharded) HandleFailures(ctx context.Context, nodes []topology.NodeID, links []topology.LinkID) ([]RepairReport, error) {
	if len(nodes) == 0 && len(links) == 0 {
		return nil, nil
	}
	dead, err := s.core.markFailuresDown(nodes, links)
	if err != nil {
		return nil, err
	}
	perShard := make([][]RepairReport, len(s.shards))
	s.core.pool.Run(len(s.shards), 0, func(i int) {
		perShard[i] = s.shards[i].reconcileFailures(ctx, dead)
	})
	domain := s.core.failureDomain(dead)
	var reports []RepairReport
	for _, reps := range perShard {
		s.core.emitRepairEvents(reps, domain)
		reports = append(reports, reps...)
	}
	slices.SortFunc(reports, func(a, b RepairReport) int { return int(a.ID - b.ID) })
	return reports, firstRepairError(reports)
}

// RecoverNode marks a failed node as live again. Existing deployments
// are not rebalanced inline; the emitted recovery event lets an
// attached background optimizer refresh degraded standbys and re-home
// drifted placements, and new deployments may use the node
// immediately.
func (s *Sharded) RecoverNode(node topology.NodeID) error {
	c := s.core
	c.topoMu.Lock()
	if err := c.topo.SetNodeDown(node, false); err != nil {
		c.topoMu.Unlock()
		return fmt.Errorf("orch: recover node: %w", err)
	}
	c.InvalidateVMCache()
	c.topoMu.Unlock()
	c.emit(Event{Kind: EventNodeRecovered, Node: node})
	return nil
}

// RecoverLink marks a failed link as live again. Existing deployments
// are not rerouted back inline; the emitted recovery event lets an
// attached background optimizer refresh standbys planned around the
// outage, and new paths may use the link immediately.
func (s *Sharded) RecoverLink(link topology.LinkID) error {
	c := s.core
	c.topoMu.Lock()
	if err := c.topo.SetLinkDown(link, false); err != nil {
		c.topoMu.Unlock()
		return fmt.Errorf("orch: recover link: %w", err)
	}
	// A recovered PM↔ToR link can bring stranded VMs back.
	c.InvalidateVMCache()
	c.topoMu.Unlock()
	c.emit(Event{Kind: EventLinkRecovered, Link: link})
	return nil
}

// NodeImpact merges every shard's blast-radius entries for the node,
// sorted by ID (shard entry sets are disjoint by construction).
func (s *Sharded) NodeImpact(node topology.NodeID) []ImpactEntry {
	var out []ImpactEntry
	for _, sh := range s.shards {
		out = append(out, sh.NodeImpact(node)...)
	}
	slices.SortFunc(out, func(a, b ImpactEntry) int { return int(a.ID - b.ID) })
	return out
}

// LinkImpact merges every shard's blast-radius entries for the link.
func (s *Sharded) LinkImpact(link topology.LinkID) []ImpactEntry {
	var out []ImpactEntry
	for _, sh := range s.shards {
		out = append(out, sh.LinkImpact(link)...)
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

// RuleCount sums installed flow rules across shard controllers.
func (s *Sharded) RuleCount() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.ctrl.RuleCount()
	}
	return n
}

// StandbyFallbacks sums, across shards, the standby plans that tried the
// whole fabric after the shard's own pool offered no disjoint route —
// provisions, repairs and re-protects alike, storm-group members
// included.
func (s *Sharded) StandbyFallbacks() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.standbyFallbacks.Load()
	}
	return n
}

// ShardStat is one shard's slice of the fleet, exactly as GET /metrics
// serves it: each field is one series labeled with the shard's index,
// read in one walk a scrape (TestShardStatIsServed, internal/telemetry,
// holds the field-to-series map). The protection split alone is served
// summed over shards, as alvc_resilience_standby_chains{status}.
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
	// Conversions and EnergyJoules sum the active chains' per-flow O/E/O
	// accounting.
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
func (o *Orchestrator) shardStat() ShardStat {
	st := ShardStat{
		Shard:            o.shard,
		OPSPool:          o.alloc.PoolSize(),
		VCs:              o.alloc.VCCount(),
		PathComputations: o.ctrl.PathComputations(),
		YenRuns:          o.ctrl.YenRuns(),
		InstalledRules:   o.ctrl.RuleCount(),
		BusyOps:          o.BusyOps(),
	}
	_, st.RuleInstalls = o.ctrl.Stats()
	st.CandidateCacheHits, st.CandidateCacheMisses = o.ctrl.AlternativesCacheStats()
	st.ProvisionOK, st.ProvisionFailed = o.ProvisionOutcomes()
	o.mu.Lock()
	defer o.mu.Unlock()
	st.Deleted, st.Repairs = o.deletedTotal, o.repairsTotal
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
