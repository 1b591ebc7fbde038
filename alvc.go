// Package alvc is the public API of the AL-VC reproduction: the
// Abstraction Layer based Virtual Cluster architecture for network
// function chaining of Bashir, Ohsita and Murata (IEEE ICDCSW 2016,
// DOI 10.1109/ICDCSW.2016.42).
//
// The architecture virtualizes a hybrid electronic/optical data center
// into service-based virtual clusters. Each cluster pairs a group of
// VMs offering one service with an abstraction layer (AL): the minimum
// set of optical packet switches connecting all of the group's
// machines, selected by a max-weight vertex-cover construction
// (paper §III-C). In NFV deployments one cluster hosts one network
// function chain; the AL doubles as the chain's optical slice, and
// low-demand VNFs are pushed onto optoelectronic routers inside the
// optical domain to save O/E/O conversions (paper §IV).
//
// # Quick start
//
//	arch, err := alvc.New(alvc.DefaultTopology())
//	if err != nil { ... }
//	spec, _ := alvc.LinearChain("my-chain", "tenant-a", "web", 2.0, 1<<20,
//		"firewall", "lb", "dpi")
//	dep, err := arch.Sharded().Provision(context.Background(), spec)
//	fmt.Println(dep.Conversions, dep.EnergyJoules)
//
// The facade re-exports the concrete types of the internal packages as
// aliases, so the whole system — topology generation, AL construction,
// VNF lifecycle, SDN provisioning, placement policies and the flow
// simulator — is reachable from this one import.
package alvc

import (
	"fmt"
	"time"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/flow"
	"github.com/alvc/alvc/internal/nfv"
	"github.com/alvc/alvc/internal/optical"
	"github.com/alvc/alvc/internal/optimizer"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
)

// Compile-time interface checks for the re-exported policy and builder
// types.
var (
	_ PlacementPolicy = AllElectronic{}
	_ PlacementPolicy = OpticalFirst{}
	_ PlacementPolicy = OptimalPlacement{}
	_ ALBuilder       = PaperBuilder{}
	_ ALBuilder       = GreedyBuilder{}
)

// Re-exported core types. Aliases keep the public façade thin while the
// implementation lives in focused internal packages.
type (
	// Topology is the hybrid electronic/optical data-center network.
	Topology = topology.Topology
	// TopologyConfig parameterizes the deterministic DCN generator.
	TopologyConfig = topology.GenConfig
	// NodeID identifies a node of the topology.
	NodeID = topology.NodeID
	// LinkID identifies a link of the topology.
	LinkID = topology.LinkID
	// Failures is a set of nodes and links that fail or recover
	// together, as one liveness transition (NewFailures).
	Failures = topology.Failures
	// Resources is a CPU/memory/storage vector.
	Resources = topology.Resources
	// Spec is a network-function-chain request.
	Spec = chain.Spec
	// Change is one edit of a deployed chain (Sharded().Apply):
	// ChangeBandwidth, ChangeVersion, ChangeReplicas, ChangeHost or
	// ChangeRebuild, or the optimizer's orch.ChangeRehome and
	// orch.ChangeDefrag.
	Change = orch.Change
	// NFRef is one NF position within a Spec.
	NFRef = chain.NFRef
	// Deployment is an orchestrated chain with its cluster, slice,
	// VNFs and provisioned path.
	Deployment = orch.Deployment
	// DeploymentID identifies a Deployment.
	DeploymentID = orch.DeploymentID
	// VC is a virtual cluster (VM group + abstraction layer).
	VC = cluster.VC
	// AL is an abstraction layer.
	AL = cluster.AL
	// ALBuilder constructs abstraction layers.
	ALBuilder = cluster.Builder
	// PlacementPolicy decides VNF domains (optical vs electronic).
	PlacementPolicy = placement.Policy
	// FlowResult aggregates measured flow costs.
	FlowResult = flow.Result
	// BatchResult is the per-spec outcome of a batch provision
	// (Sharded().ProvisionBatch).
	BatchResult = orch.BatchResult
	// RepairReport is one chain's reconciliation outcome after a
	// failure (action taken: swapped / repathed / restandby / replaced /
	// patched / rebuilt / failed / skipped).
	RepairReport = orch.RepairReport
	// RepairAction classifies what the reconciler did to one chain.
	RepairAction = orch.RepairAction
	// Standby is a chain's precomputed alternate route; a live standby
	// turns a data-path failure into a pure rule swap.
	Standby = resilience.Standby
	// ImpactEntry is one chain inside a resource's blast radius with the
	// roles the resource plays for it (slice/host/path/standby).
	ImpactEntry = orch.ImpactEntry
	// Tombstone is what the orchestrator remembers of a deleted chain
	// (identity, deleted-at, the delete's trace) while it is among the
	// newest orch.TombstoneRing deletes of its shard.
	Tombstone = orch.Tombstone
	// Optimizer is the background maintenance engine: async standby
	// re-protection, recover-time refresh, placement re-homing and
	// λ defragmentation behind a deduplicating prioritized queue.
	Optimizer = optimizer.Engine
	// OptimizerOptions tunes the background optimizer.
	OptimizerOptions = optimizer.Options
	// OptimizerStatus is the engine's observable state (queue depth,
	// per-kind counters, recent task results).
	OptimizerStatus = optimizer.Status
	// OptimizerTaskResult is one executed maintenance task's outcome.
	OptimizerTaskResult = optimizer.TaskResult
	// OrchEvent is one orchestrator lifecycle notification (repair
	// completed, node/link recovered, placement changed, delete).
	OrchEvent = orch.Event
	// EventSink receives orchestrator lifecycle events: attach one to
	// Hooks.Events through Sharded().UpdateHooks.
	EventSink = orch.EventSink
	// ShardMode selects what the shard router hashes (tenant or flow
	// key) to pick a chain's owning shard.
	ShardMode = orch.ShardMode
	// ShardStat is one orchestrator shard's slice of the fleet
	// (deployments by state, repairs, OPS pool size, controller load).
	ShardStat = orch.ShardStat
	// FailureDebouncer coalesces a failure-event storm into batched
	// reconciliation passes (WithFailureDebounce).
	FailureDebouncer = orch.FailureDebouncer
	// DebounceStats counts the failure debouncer's coalescing work.
	DebounceStats = orch.DebounceStats
	// GroupPlanStats counts the optimizer's failure-domain groups
	// (groups opened, members coalesced into open ones) and their
	// members' plans (standbys re-planned, whole-fabric fallbacks).
	GroupPlanStats = optimizer.GroupPlanStats
	// Tracer issues request-scoped spans into the trace store; nil-safe
	// (every method on a nil Tracer is a no-op).
	Tracer = trace.Tracer
	// TraceStore is the bounded in-memory span store behind
	// GET /v1/traces.
	TraceStore = trace.Store
	// TraceOptions bounds the in-memory trace store (ring sizes,
	// slowest/errored retention, span budget).
	TraceOptions = trace.StoreOptions
	// TraceSpan is one recorded operation of a trace.
	TraceSpan = trace.Span
	// TraceSummary is one trace's roll-up (id, kind, duration, span
	// count) as listed by GET /v1/traces.
	TraceSummary = trace.Summary
	// TraceQuery filters trace listings.
	TraceQuery = trace.Query
)

// Shard routing modes for WithShardMode.
const (
	// ShardByTenant routes every chain of a tenant to the same shard
	// (the default): tenant isolation maps onto state isolation.
	ShardByTenant = orch.ShardByTenant
	// ShardByChain routes on the full tenant/name flow key, spreading
	// even one giant tenant across all shards (rack-pod-style
	// decomposition).
	ShardByChain = orch.ShardByChain
)

// Re-exported AL builders (paper §III-C and its baselines).
type (
	// PaperBuilder is the paper's max-weight vertex-cover AL
	// construction.
	PaperBuilder = cluster.PaperBuilder
	// GreedyBuilder is classic greedy set cover.
	GreedyBuilder = cluster.GreedyBuilder
	// RandomBuilder reproduces the earlier random construction [15].
	RandomBuilder = cluster.RandomBuilder
)

// Re-exported placement policies (paper §IV-D and its baselines).
type (
	// AllElectronic keeps every VNF on servers.
	AllElectronic = placement.AllElectronic
	// OpticalFirst is the paper's greedy optical placement.
	OpticalFirst = placement.OpticalFirst
	// OptimalPlacement is the exhaustive minimum-conversion placement.
	OptimalPlacement = placement.Optimal
)

// DefaultTopology returns the generator configuration used by the
// examples: 8 racks over a 6-OPS optical core with three services.
func DefaultTopology() TopologyConfig { return topology.DefaultGenConfig() }

// LinearChain builds a validated linear chain Spec.
func LinearChain(name, tenant, service string, bandwidthGbps float64, flowBytes int64, nfs ...string) (Spec, error) {
	return chain.Linear(name, tenant, service, bandwidthGbps, flowBytes, nfs...)
}

// ChangeBandwidth is the Change that sets a chain's bandwidth
// reservation.
func ChangeBandwidth(gbps float64) Change { return orch.ChangeBandwidth(gbps) }

// ChangeVersion is the Change that rolls every VNF of a chain to the
// next version.
func ChangeVersion() Change { return orch.ChangeVersion() }

// ChangeReplicas is the Change that scales a chain's NF at position nf
// to the given replica count.
func ChangeReplicas(nf, replicas int) Change { return orch.ChangeReplicas(nf, replicas) }

// ChangeHost is the Change that migrates a chain's NF at position nf to
// another hosting-capable node and re-provisions connectivity — the
// "deploy VNFs when and where required" operation (§I), and the online
// form of Fig. 8's move-into-the-optical-domain optimization.
func ChangeHost(nf int, to NodeID) Change { return orch.ChangeHost(nf, to) }

// ChangeRebuild is the Change that rebuilds a chain from scratch around
// the current topology state.
func ChangeRebuild() Change { return orch.ChangeRebuild() }

// NFCatalog returns the names of the built-in network function types.
func NFCatalog() []string { return nfv.ProfileNames() }

// Option customizes an Architecture.
type Option func(*settings)

type settings struct {
	builder        cluster.Builder
	policy         placement.Policy
	mode           placement.Mode
	costModel      *optical.CostModel
	wavelengths    int
	noStandby      bool
	optimizer      *optimizer.Options
	shards         int
	shardMode      orch.ShardMode
	debounceWindow *time.Duration
	traceOpts      *trace.StoreOptions
	traceSet       bool
}

// WithBuilder selects the AL construction algorithm (default: the
// paper's max-weight builder).
func WithBuilder(b ALBuilder) Option {
	return func(s *settings) { s.builder = b }
}

// WithPolicy selects the VNF placement policy (default: the paper's
// optical-first greedy).
func WithPolicy(p PlacementPolicy) Option {
	return func(s *settings) { s.policy = p }
}

// WithPerRunAccounting switches placement's O/E/O score from the paper's
// per-VNF convention to the colocation-aware per-run one. It steers
// placement's choice only: a deployment's Conversions counts its route.
func WithPerRunAccounting() Option {
	return func(s *settings) { s.mode = placement.AccountPerRun }
}

// WithConversionCost overrides the O/E/O energy model.
func WithConversionCost(joulesPerBit, fixedJoules float64) Option {
	return func(s *settings) {
		s.costModel = &optical.CostModel{JoulesPerBit: joulesPerBit, FixedJoules: fixedJoules}
	}
}

// WithWavelengths enables per-flow WDM wavelength assignment with the
// given channels per optical link (first-fit, continuity-constrained;
// chains block when no common wavelength remains).
func WithWavelengths(n int) Option {
	return func(s *settings) { s.wavelengths = n }
}

// WithBatchWorkers is accepted and ignored: a batch provisions its specs
// in input order on the caller's goroutine. The repository benchmark
// still passes it; ROADMAP item 3 or 5 drops it.
func WithBatchWorkers(int) Option {
	return func(*settings) {}
}

// WithoutStandby disables standby planning, so every data-path repair
// is a cold re-path (useful as a baseline).
func WithoutStandby() Option {
	return func(s *settings) { s.noStandby = true }
}

// WithShards makes the orchestrator a set of n shards, each owning its
// own deployment map, reverse indexes, flow-key space, SDN flow tables
// and a disjoint partition of the OPS pool, behind a router that
// hashes the tenant (default, see WithShardMode) to pick a chain's
// shard. The topology, its routing snapshots, host capacity and
// wavelength occupancy stay shared. n <= 1 keeps the single-shard
// behavior. The topology must have at least n OPSs.
func WithShards(n int) Option {
	return func(s *settings) { s.shards = n }
}

// WithShardMode selects the shard-routing hash input: ShardByTenant
// (default) or ShardByChain. Only meaningful together with WithShards.
func WithShardMode(mode ShardMode) Option {
	return func(s *settings) { s.shardMode = mode }
}

// WithOptimizer attaches the background optimization engine: repairs
// stop replanning standbys inline (the standby search leaves the
// recovery hot path; the engine re-protects chains asynchronously),
// recoveries
// trigger standby refresh and placement re-homing, and idle ticks
// consolidate fragmented wavelength assignments. The engine is wired
// as the orchestrator's event sink; drive it with Optimizer().Drain
// (synchronous drain) or Optimizer().Start (a daemon's background
// loop).
func WithOptimizer(opts OptimizerOptions) Option {
	return func(s *settings) { s.optimizer = &opts }
}

// WithTracing tunes or disables request-scoped tracing. Tracing is ON
// by default with default store bounds: every provision, delete and
// repair records a span tree into a bounded in-memory store, queryable
// via Architecture.TraceStore (the server's GET /v1/traces). Pass
// non-nil options to resize the store; pass nil to disable tracing
// entirely — the hot paths then skip span bookkeeping with zero
// allocations.
func WithTracing(opts *TraceOptions) Option {
	return func(s *settings) { s.traceSet = true; s.traceOpts = opts }
}

// WithFailureDebounce attaches a failure debouncer: failure events
// reported through Debouncer().Report coalesce for the given window and
// dispatch as one union Sharded().HandleFailures, so a failure storm (a
// cut tray, a rack PDU trip) repairs every affected chain exactly once
// instead of once per event. A non-positive window installs the
// debouncer in pass-through mode (useful to keep one code path and
// batch only via FlushFailures). GET /v1/optimizer/status reports the debouncer's
// coalescing counters beside the optimizer's.
func WithFailureDebounce(window time.Duration) Option {
	return func(s *settings) { s.debounceWindow = &window }
}

// Architecture is a running AL-VC instance: a topology plus the full
// management stack of Fig. 6 (orchestrator over SDN controller and
// Cloud/NFV manager), optionally with the background optimization
// engine attached.
type Architecture struct {
	topo *topology.Topology
	// sh is the orchestrator every verb goes through: a set of shards,
	// one unless WithShards raised the count.
	sh       *orch.Sharded
	opt      *optimizer.Engine
	debounce *orch.FailureDebouncer
	tracer   *trace.Tracer
}

// New generates a topology from the configuration and stands up the
// management stack on it.
func New(cfg TopologyConfig, opts ...Option) (*Architecture, error) {
	topo, err := topology.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("alvc: %w", err)
	}
	return FromTopology(topo, opts...)
}

// FromTopology stands the management stack up on an existing topology
// (which must pass Validate).
func FromTopology(topo *topology.Topology, opts ...Option) (*Architecture, error) {
	if topo == nil {
		return nil, fmt.Errorf("alvc: nil topology")
	}
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("alvc: %w", err)
	}
	var s settings
	for _, opt := range opts {
		opt(&s)
	}
	sh, err := orch.New(orch.Config{
		Topo:        topo,
		Builder:     s.builder,
		Policy:      s.policy,
		Mode:        s.mode,
		CostModel:   s.costModel,
		Wavelengths: s.wavelengths,
		NoStandby:   s.noStandby,
		// Only with an engine draining repair events may repairs defer
		// standby replanning off the recovery hot path.
		DeferReprotect: s.optimizer != nil,
	}, s.shards, s.shardMode)
	if err != nil {
		return nil, fmt.Errorf("alvc: %w", err)
	}
	arch := &Architecture{topo: topo, sh: sh}
	// Tracing is on by default (bounded store, default sizes); only an
	// explicit WithTracing(nil) turns it off. The one tracer, on the
	// orchestrator's Hooks, is read by every shard, the debouncer and the
	// optimizer, so spans from all of them land in one store and one
	// causal chain.
	traceOpts := &trace.StoreOptions{}
	if s.traceSet {
		traceOpts = s.traceOpts
	}
	if traceOpts != nil {
		arch.tracer = trace.NewTracer(trace.NewStore(*traceOpts))
	}
	if s.optimizer != nil {
		if arch.opt, err = optimizer.New(sh, *s.optimizer); err != nil {
			return nil, fmt.Errorf("alvc: %w", err)
		}
	}
	// Every observer reaches the stack through the orchestrator's one
	// Hooks value: the tracer, and the engine as the first event sink.
	// Other observers (the telemetry plane's counters and watch hub)
	// append their sinks after it through Sharded().UpdateHooks.
	sh.UpdateHooks(func(h *orch.Hooks) {
		h.Tracer = arch.tracer
		if arch.opt != nil {
			h.Events = []orch.EventSink{arch.opt}
		}
	})
	if s.debounceWindow != nil {
		arch.debounce = orch.NewFailureDebouncer(sh, *s.debounceWindow)
	}
	return arch, nil
}

// Topology returns the underlying network.
func (a *Architecture) Topology() *Topology { return a.topo }

// Sharded returns the orchestrator — a set of shards, one unless
// WithShards raised the count — the one home of every chain verb
// (Provision, Delete, Apply, HandleFailures, Recover, Impact, the
// service clusters) and fleet read: deployments, per-shard statistics,
// a chain's SDN controller by its ID (ControllerOf), and the NFV
// manager, slices and wavelengths every shard shares.
func (a *Architecture) Sharded() *orch.Sharded { return a.sh }

// NewFailures builds the failure set of the given nodes and links,
// ascending and each ID once. A list already strictly ascending is kept,
// not copied.
func NewFailures(nodes []NodeID, links []LinkID) Failures {
	return topology.NewFailures(nodes, links)
}

// FlushFailures dispatches the debouncer's pending failure union
// immediately and returns the batch outcome (nil, nil when nothing is
// pending or no debouncer is attached).
func (a *Architecture) FlushFailures() ([]RepairReport, error) {
	if a.debounce == nil {
		return nil, nil
	}
	return a.debounce.Flush()
}

// Debouncer returns the failure debouncer, or nil when the
// architecture was built without WithFailureDebounce.
func (a *Architecture) Debouncer() *FailureDebouncer { return a.debounce }

// Tracer returns the request-scoped tracer, or nil when tracing was
// disabled with WithTracing(nil). A nil Tracer is safe to call.
func (a *Architecture) Tracer() *Tracer { return a.tracer }

// TraceStore returns the bounded in-memory trace store behind
// GET /v1/traces, or nil when tracing is disabled.
func (a *Architecture) TraceStore() *TraceStore {
	if a.tracer == nil {
		return nil
	}
	return a.tracer.Store()
}

// Optimizer returns the background optimization engine, or nil when
// the architecture was built without WithOptimizer.
func (a *Architecture) Optimizer() *Optimizer { return a.opt }

// Close flushes the failure debouncer, if attached, so the failures its
// window still holds are repaired rather than dropped; then it stops the
// background optimizer, if attached. Queued optimizer tasks stay queued.
func (a *Architecture) Close() {
	if a.debounce != nil {
		// Its outcome goes where a window expiry's goes: the batch span,
		// the flush observer and the chains' records.
		_, _ = a.debounce.Flush()
	}
	if a.opt != nil {
		a.opt.Stop()
	}
}

// Deployment returns one deployment, copied as Sharded().Deployments
// copies (it shares Spec.NFs, Placement's lists, VC and Slice with the
// live record: read those only), or nil (unknown or deleted).
func (a *Architecture) Deployment(id DeploymentID) *Deployment { return a.sh.Deployment(id) }

// MeasureDeployment replays n representative flows of the deployment
// along the walk its installed rules take (sdn.Controller.Walk) and
// returns the measured aggregate (hops, O/E/O conversions, energy,
// latency). A chain whose rules do not carry a packet to its egress — a
// blackhole, an ambiguous match, a dead link — is an error, not a
// number.
func (a *Architecture) MeasureDeployment(id DeploymentID, n int) (FlowResult, error) {
	dep := a.sh.Deployment(id)
	if dep == nil {
		return FlowResult{}, fmt.Errorf("alvc: measure: unknown deployment %d", id)
	}
	if n <= 0 {
		return FlowResult{}, fmt.Errorf("alvc: measure: n must be positive, got %d", n)
	}
	// Per-visit VNF processing latency from the deployed instances'
	// catalog profiles, so measured latency includes middlebox time.
	cfg := flow.DefaultConfig()
	cfg.VNFDelayUs = make(map[NodeID]float64)
	for _, instID := range dep.Instances {
		inst := a.sh.Manager().Instance(instID)
		if inst == nil {
			continue
		}
		if p, err := nfv.ProfileByName(string(inst.Type)); err == nil {
			cfg.VNFDelayUs[inst.Host] += p.PerPacketMicros
		}
	}
	sim, err := flow.NewSimulator(a.topo, cfg)
	if err != nil {
		return FlowResult{}, fmt.Errorf("alvc: measure: %w", err)
	}
	ctrl := a.sh.ControllerOf(dep.ID)
	walk, err := ctrl.Walk(dep.FlowKey())
	if err != nil {
		return FlowResult{}, fmt.Errorf("alvc: measure: %w", err)
	}
	specs := make([]flow.Spec, n)
	for i := range specs {
		specs[i] = flow.Spec{Walk: walk, Bytes: dep.Spec.FlowBytes}
	}
	res, err := sim.RunBatch(specs)
	if err != nil {
		return FlowResult{}, fmt.Errorf("alvc: measure: %w", err)
	}
	// Credit the flow-table counters like a switch would (OpenFlow
	// statistics): each replayed flow hits every rule on its path once.
	ctrl.RecordHits(dep.FlowKey(), int64(n))
	return res, nil
}

// Summary condenses the architecture's state.
type Summary struct {
	PMs, VMs, ToRs, OPSs int
	OptoelectronicOPSs   int
	Services             int
	Clusters             int
	ActiveDeployments    int
	InstalledRules       int
	TotalConversions     int
	TotalEnergyJoules    float64
}

// Summarize returns the current Summary.
func (a *Architecture) Summarize() Summary {
	stats := a.topo.ComputeStats()
	s := Summary{
		PMs:                stats.PMs,
		VMs:                stats.VMs,
		ToRs:               stats.ToRs,
		OPSs:               stats.OPSs,
		OptoelectronicOPSs: stats.OptoelectronicOPSs,
		Services:           stats.Services,
	}
	for _, st := range a.sh.ShardStats() {
		s.Clusters += st.VCs
		s.InstalledRules += st.InstalledRules
		s.ActiveDeployments += st.Active
		s.TotalConversions += st.Conversions
		s.TotalEnergyJoules += st.EnergyJoules
	}
	return s
}
