// Package orch implements the network orchestrator of Fig. 6: the
// multi-tenant control point that "is responsible for managing
// (provisioning, creation, modification, upgradation, and deletion) of
// multiple NFCs" over the AL-VC architecture. For each chain it builds
// a virtual cluster (one VC hosts one NFC, §IV-C), hands the cluster's
// abstraction layer to the tenant as its optical slice, places the
// chain's VNFs across the optical/electronic domains, instantiates them
// through the Cloud/NFV manager, and provisions connectivity through
// the SDN controller — optionally with per-flow wavelength assignment
// (WDM) on the optical segments.
//
// Beyond the paper's five verbs the orchestrator also repairs: when
// nodes or links fail (Sharded.HandleFailures, over one
// topology.Failures set: one node, one link or a rack-scale batch, as
// one liveness transition) a differential reconciliation
// engine (reconcile.go) classifies the damage per affected chain
// against the union of dead resources and re-runs only the
// provisioning stages the failure invalidated — a make-before-break
// swap to the precomputed standby path (internal/resilience, zero
// shortest-path runs), a cold re-path, single-VNF replacement, or
// AL/slice patch — falling back to a full teardown-and-rebuild only
// when patching is impossible. This is the paper's central claim
// (§III) made operational: failures are confined to "the few switches
// of one AL" instead of re-provisioning the world.
package orch

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/nfv"
	"github.com/alvc/alvc/internal/optical"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/ring"
	"github.com/alvc/alvc/internal/sdn"
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
)

// Sentinel errors callers (notably the HTTP control plane) classify on.
var (
	// ErrUnknownDeployment is wrapped when a deployment ID does not
	// exist.
	ErrUnknownDeployment = errors.New("unknown deployment")
	// ErrNotActive is wrapped when an operation requires an active
	// deployment but the deployment is deleted or failed.
	ErrNotActive = errors.New("deployment is not active")
	// ErrBusy is wrapped when a deployment already has an exclusive
	// operation (repair, move, delete) in flight.
	ErrBusy = errors.New("deployment operation in progress")
	// ErrDuplicateChain is wrapped when a spec's flow key (tenant/name)
	// collides with an existing active deployment.
	ErrDuplicateChain = errors.New("duplicate chain")
)

// DeploymentID identifies a deployed chain.
type DeploymentID int

// DeploymentState tracks a deployment's lifecycle.
type DeploymentState int

// Deployment states.
const (
	StateActive DeploymentState = iota + 1
	StateDeleted
	// StateFailed marks a deployment whose repair after a failure did
	// not succeed; its resources have been released.
	StateFailed
)

// String returns the state name.
func (s DeploymentState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateDeleted:
		return "deleted"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Deployment is one orchestrated NFC: the cluster and slice backing it,
// the placed VNF instances, and the provisioned path.
type Deployment struct {
	ID    DeploymentID
	Spec  chain.Spec
	State DeploymentState
	// Version counts upgrades (Upgrade bumps it).
	Version int
	// Repairs counts successful failure repairs.
	Repairs int

	VC        *cluster.VC
	Slice     *optical.Slice
	Instances []nfv.InstanceID
	// Placement is the domain decision per NF position.
	Placement placement.Result
	// Path is the provisioned route src VM → VNF hosts → dst VM.
	Path []topology.NodeID
	// Standby is the precomputed alternate route (nil when planning is
	// disabled, no alternative exists, or the standby was consumed by a
	// repair and not yet replanned). A valid standby turns a data-path
	// failure into a pure rule swap with no shortest-path run.
	Standby *resilience.Standby
	// SliceConfined reports whether the path stayed inside the slice's
	// OPSs (it can leave the slice when the AL is not connected in the
	// optical mesh; transit then uses foreign OPSs but hosting does
	// not).
	SliceConfined bool
	// Drifted marks instances moved under duress — a replaced, patched or
	// rebuilt repair — and not since brought home: set when such a repair
	// commits, cleared when Rehome migrates the chain or finds it at
	// conversion score 0, which no placement can beat. Kept beside the
	// other bool, in its padding: the record is copied per chain per list.
	Drifted bool
	// Lambda is the assigned wavelength on the path's optical segments
	// (-1 when WDM is disabled).
	Lambda int
	// Conversions is the analytic O/E/O count for one representative
	// flow (per the configured accounting mode).
	Conversions int
	// EnergyJoules is the conversion energy for one representative flow
	// of Spec.FlowBytes.
	EnergyJoules float64

	// idxNodes/idxLinks record exactly what the reverse indexes hold for
	// this deployment, so the next commit is a diff against them even
	// after the footprint fields (or link liveness) changed underneath.
	// primaryLinks caches the primary path's physical links (computed
	// once per commit alongside the index), so per-chain failure
	// classification under o.mu is a set probe, not a topology walk.
	// All three are refilled in place: a snapshot carries none of them.
	idxNodes     []topology.NodeID
	idxLinks     []topology.LinkID
	primaryLinks []topology.LinkID
	// flowKey is FlowKey's answer, joined once at provision.
	flowKey string
}

// FlowKey returns the SDN flow tag isolating this deployment.
func (d *Deployment) FlowKey() string {
	if d.flowKey != "" {
		return d.flowKey
	}
	return d.Spec.Tenant + "/" + d.Spec.Name
}

// Config wires an orchestrator.
type Config struct {
	Topo *topology.Topology
	// Allocator, when non-nil, is shared with the caller so cluster
	// construction outside the orchestrator and chain provisioning see
	// the same OPS ownership (the one-OPS-one-AL rule spans both).
	Allocator *cluster.Allocator
	// Builder constructs ALs (defaults to the paper's algorithm).
	// Ignored when Allocator is set.
	Builder cluster.Builder
	// Policy places VNFs (defaults to the paper's optical-first).
	Policy placement.Policy
	// Mode is the O/E/O accounting convention (defaults to per-VNF,
	// Fig. 8's accounting).
	Mode placement.Mode
	// CostModel prices conversions (defaults to DefaultCostModel).
	CostModel *optical.CostModel
	// Wavelengths, when positive, enables per-flow WDM assignment with
	// that many wavelengths per optical link.
	Wavelengths int
	// NoStandby disables standby planning: every data-path repair is then
	// a cold re-path (a baseline; protection is on by default).
	NoStandby bool
	// DeferReprotect switches standby replanning from inline to deferred:
	// repair re-runs of the pipeline stop planning standbys — the standby
	// search leaves the recovery hot path — and rely on a background
	// optimizer re-protecting the chain from the emitted repair-completed
	// event. Provision-time planning is unaffected. Set it only when such
	// an optimizer consumes Hooks.Events, or repaired chains stay
	// unprotected.
	DeferReprotect bool
}

// sharedCore is the state every orchestrator shard reads and writes
// through the same instance: the physical topology and its mutation
// lock, the capacity ledger (Cloud/NFV manager), the optical slice
// manager (the optical-layer one-OPS-one-slice check must stay global),
// the wavelength allocator (per-link λ occupancy is physical truth),
// and the configuration knobs. Per-shard state — deployment maps,
// reverse indexes, flow-key reservations, busy guards, the OPS-pool-
// restricted cluster allocator and the SDN flow tables — lives on each
// Orchestrator; a one-shard set is simply one shard owning the whole
// pool.
type sharedCore struct {
	// topoMu serializes topology mutations (node up/down transitions)
	// against the provisioning pipeline, which reads liveness bits all
	// over (VM filtering, path computation, VNF host checks). Readers —
	// buildChain, MoveNF — hold RLock; SetDown holds Lock. Kept
	// separate from the per-shard mu so long builds never block
	// deployment lookups, and shared across shards so one shard's
	// failure handling is visible to every shard's pipeline.
	topoMu sync.RWMutex

	topo      *topology.Topology
	slices    *optical.SliceManager
	mgr       *nfv.Manager
	wdm       *optical.WDM
	policy    placement.Policy
	mode      placement.Mode
	costModel optical.CostModel

	// noStandby and deferReprotect are Config's switches of the same
	// names, fixed at construction.
	noStandby      bool
	deferReprotect bool

	// hooks is the current Hooks value (events.go), never nil: readers
	// load it once per operation, Sharded.UpdateHooks replaces it.
	hooks atomic.Pointer[Hooks]

	// vmIdx caches the live VMs offering each service (see liveVMs).
	// Shared: liveness transitions invalidate it for every shard at
	// once.
	vmIdx vmIndex

	// batchSeq numbers HandleFailures batches that hit no shared-risk
	// group, giving their repair events a unique failure domain
	// (failureDomain). Shared so sharded fleets number globally.
	batchSeq uint64

	// pool runs the set's fan-outs until Sharded.Close; clock times the
	// reconciler's busy retries.
	pool  executor
	clock Clock
}

// newSharedCore builds the cross-shard substrate from a Config.
func newSharedCore(cfg Config) (*sharedCore, error) {
	policy := cfg.Policy
	if policy == nil {
		policy = placement.OpticalFirst{}
	}
	mode := cfg.Mode
	if mode == 0 {
		mode = placement.AccountPerVNF
	}
	model := optical.DefaultCostModel()
	if cfg.CostModel != nil {
		model = *cfg.CostModel
	}
	slices, err := optical.NewSliceManager(cfg.Topo)
	if err != nil {
		return nil, err
	}
	mgr, err := nfv.NewManager(cfg.Topo)
	if err != nil {
		return nil, err
	}
	var wdm *optical.WDM
	if cfg.Wavelengths > 0 {
		wdm, err = optical.NewWDM(cfg.Wavelengths)
		if err != nil {
			return nil, err
		}
	}
	core := &sharedCore{
		topo:           cfg.Topo,
		slices:         slices,
		mgr:            mgr,
		wdm:            wdm,
		policy:         policy,
		mode:           mode,
		costModel:      model,
		noStandby:      cfg.NoStandby,
		deferReprotect: cfg.DeferReprotect,
		pool:           NewPool(),
		clock:          WallClock,
	}
	core.hooks.Store(&Hooks{})
	return core, nil
}

// Orchestrator is one shard of the orchestrator (Sharded): it
// coordinates the cluster allocator, slice manager, Cloud/NFV manager
// and SDN controller for the deployments it owns. Safe for concurrent
// use. New stands up N of them over one sharedCore with partitioned OPS
// pools and strided deployment IDs; fleet-level work — failure batches,
// recoveries, batch provisioning, hooks — is the set's, not a shard's.
type Orchestrator struct {
	*sharedCore

	mu sync.Mutex

	// shard/idStride identify this orchestrator inside a Sharded router:
	// shard s of n issues deployment IDs s+1, s+1+n, s+1+2n, … so the
	// owning shard of any ID is (id-1) mod n — no shared ID allocator,
	// no cross-shard lookup. A one-shard set is shard 0 with stride 1
	// (IDs 1,2,3,…).
	shard    int
	idStride DeploymentID

	alloc *cluster.Allocator
	ctrl  *sdn.Controller

	// deployments holds the chains this shard has a record of: active
	// ones and those a failed repair left in StateFailed. Delete takes
	// the record out and leaves a Tombstone in tombs, so every walk of
	// the map is O(active).
	deployments map[DeploymentID]*Deployment
	tombs       ring.Ring[Tombstone] // the newest TombstoneRing deletes
	// viewOrder is ViewDeployments' scratch: the records in ID order
	// while a view runs, cleared between views. Guarded by mu.
	viewOrder []*Deployment
	// repairsTotal and deletedTotal count successful repairs and
	// deletes since construction. Counters rather than sums over the
	// map, so they stay monotone when repaired chains are deleted.
	// Guarded by mu.
	repairsTotal int
	deletedTotal int
	// flowKeys maps each active (or being-provisioned) chain's flow key
	// to its deployment, reserving the SDN flow-table and WDM namespace:
	// two live chains must never share a key (Delete of one would strip
	// the other's rules). Per-shard: the router sends every spec with
	// the same flow key to the same shard, so a per-shard map is a
	// global uniqueness check.
	flowKeys map[string]DeploymentID
	// busy marks deployments with an exclusive operation (repair, move,
	// delete, upgrade, scale) in flight, so those verbs cannot
	// interleave teardowns.
	busy   map[DeploymentID]bool
	nextID DeploymentID

	// nodeIndex is the reverse index node → deployments whose footprint
	// (slice OPSs, VNF hosts, path nodes, standby nodes) includes it,
	// maintained on provision/repair/move/delete so failure impact is an
	// O(1) lookup instead of an O(deployments × path-length) scan
	// (index.go). Guarded by mu.
	nodeIndex postings[topology.NodeID]
	// linkIndex is the same reverse index for links (primary-path and
	// standby links), so link failures classify without scanning.
	// Guarded by mu.
	linkIndex postings[topology.LinkID]
	// owed is the maintenance-owed index: the active chains a recovery
	// can help, those without a disjoint standby (refresh) or Drifted
	// (re-home). Filed where the reverse indexes commit (indexLocked,
	// setStandbyLocked: they bracket every standby and placement change),
	// left with the active state (delete, failLocked). Guarded by mu.
	owed map[DeploymentID]*Deployment

	// provisionOK/provisionFail count Provision outcomes (atomics).
	provisionOK   uint64
	provisionFail uint64
	// standbyFallbacks counts per-chain standby plans that retried on the
	// whole fabric because the shard's pool offered no disjoint route
	// (pipeline.planStandby); group plans count theirs on the planner.
	standbyFallbacks atomic.Int64
}

// ProvisionOutcomes returns how many Provision calls succeeded and
// failed since construction.
func (o *Orchestrator) ProvisionOutcomes() (ok, failed uint64) {
	return atomic.LoadUint64(&o.provisionOK), atomic.LoadUint64(&o.provisionFail)
}

// BusyOps returns how many deployments currently hold an exclusive
// operation (repair, move, delete, upgrade, scale) — the shard's
// in-flight mutation gauge.
func (o *Orchestrator) BusyOps() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.busy)
}

// vmIndex caches the liveness-filtered service → VM grouping so the
// provisioning pipeline does not rebuild the full VM-by-service map (a
// scan of every topology node) on every chain build. Node liveness
// transitions (HandleFailures, Recover) invalidate it wholesale;
// the next build re-derives it once.
type vmIndex struct {
	mu        sync.Mutex
	valid     bool
	byService map[string][]topology.NodeID
}

// newShard assembles one orchestrator shard over an existing core.
// shard is 0-based; stride is the total shard count. The first ID a
// shard issues is shard+1, then it advances by stride, so shard ID
// spaces never overlap and ShardRouter.ShardOf is pure arithmetic.
func newShard(core *sharedCore, alloc *cluster.Allocator, ctrl *sdn.Controller, shard, stride int) *Orchestrator {
	return &Orchestrator{
		sharedCore:  core,
		shard:       shard,
		idStride:    DeploymentID(stride),
		alloc:       alloc,
		ctrl:        ctrl,
		nextID:      DeploymentID(shard + 1 - stride),
		deployments: make(map[DeploymentID]*Deployment),
		flowKeys:    make(map[string]DeploymentID),
		busy:        make(map[DeploymentID]bool),
		owed:        make(map[DeploymentID]*Deployment),
		tombs:       ring.New[Tombstone](TombstoneRing),
	}
}

// liveVMs returns the live VMs (VM up, host PM up, and at least one
// live ToR uplink — a rack event that strands a machine makes its VMs
// unusable for clustering and routing alike) offering the given
// service, sorted by node ID, from the cached service index. Callers
// must hold topoMu (either side) and must not mutate the returned
// slice.
func (o *Orchestrator) liveVMs(service string) []topology.NodeID {
	o.vmIdx.mu.Lock()
	defer o.vmIdx.mu.Unlock()
	if !o.vmIdx.valid {
		idx := make(map[string][]topology.NodeID)
		// VMsByService iterates nodes in ID order, so each cached group
		// is already sorted.
		for svc, vms := range o.topo.VMsByService() {
			live := make([]topology.NodeID, 0, len(vms))
			for _, vm := range vms {
				n := o.topo.Node(vm)
				host := o.topo.Node(n.Host)
				if !n.Down && host != nil && !host.Down &&
					len(o.topo.ToRsOfPM(n.Host)) > 0 {
					live = append(live, vm)
				}
			}
			idx[svc] = live
		}
		o.vmIdx.byService = idx
		o.vmIdx.valid = true
	}
	return o.vmIdx.byService[service]
}

// InvalidateVMCache drops the cached service → live-VM index. The
// orchestrator invalidates it on its own liveness transitions
// (HandleFailures, Recover); callers that mutate the
// shared topology directly (VM churn) must call this themselves, on
// any shard: the index is the core's.
func (c *sharedCore) InvalidateVMCache() {
	c.vmIdx.mu.Lock()
	c.vmIdx.valid = false
	c.vmIdx.mu.Unlock()
}

// beginExclusive claims the deployment for an exclusive operation. The
// caller must endExclusive when done. The returned Deployment is the
// live record; fields may only be touched under o.mu.
func (o *Orchestrator) beginExclusive(id DeploymentID) (*Deployment, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	dep, err := o.activeLocked(id)
	if err != nil {
		return nil, err
	}
	if o.busy[id] {
		return nil, fmt.Errorf("%w: deployment %d", ErrBusy, id)
	}
	o.busy[id] = true
	return dep, nil
}

func (o *Orchestrator) endExclusive(id DeploymentID) {
	o.mu.Lock()
	delete(o.busy, id)
	o.mu.Unlock()
}

// Controller exposes the SDN controller (read-mostly: inspecting flow
// tables in tests and experiments).
func (o *Orchestrator) Controller() *sdn.Controller { return o.ctrl }

// Manager exposes the Cloud/NFV manager.
func (o *Orchestrator) Manager() *nfv.Manager { return o.mgr }

// Allocator exposes the cluster allocator.
func (o *Orchestrator) Allocator() *cluster.Allocator { return o.alloc }

// Slices exposes the optical slice manager.
func (o *Orchestrator) Slices() *optical.SliceManager { return o.slices }

// WDM exposes the wavelength allocator (nil when disabled).
func (o *Orchestrator) WDM() *optical.WDM { return o.wdm }

// buildChain runs the full provisioning pipeline (pipeline.go) for a
// spec. On error all partial state created by this call is rolled
// back. Caller holds topoMu (read side).
func (o *Orchestrator) buildChain(ctx context.Context, spec chain.Spec, flowKey string) (*pipeline, error) {
	p, err := o.newPipeline(spec, flowKey)
	if err != nil {
		return nil, err
	}
	p.attachTrace(ctx)
	if err := p.runFrom(stageCluster); err != nil {
		p.release()
		return nil, err
	}
	return p, nil
}

// teardown releases everything a build holds. Errors are collected into
// the first non-nil one; teardown keeps going regardless.
func (o *Orchestrator) teardown(dep *Deployment) error {
	var firstErr error
	o.ctrl.RemoveFlow(dep.FlowKey())
	if o.wdm != nil {
		if _, ok := o.wdm.AssignmentOf(dep.FlowKey()); ok {
			if err := o.wdm.Release(dep.FlowKey()); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, inst := range dep.Instances {
		if err := o.mgr.Terminate(inst); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := o.slices.Release(dep.Slice.ID); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := o.alloc.Release(dep.VC.ID); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Provision deploys a chain end to end. On any failure all partial
// state is rolled back and the orchestrator is unchanged. Safe for
// concurrent use: independent specs provision in parallel (see also
// Sharded.ProvisionBatch), serialized only at the shared resource
// pools. With a tracer attached it records a "provision" span — a child
// of the span in ctx (the server's per-request root) when one is there,
// the root of a fresh trace otherwise — with every executed pipeline
// stage as a child span. The spans go up with the request's, or, with no
// traced operation around the provision, to the store in one insert.
func (o *Orchestrator) Provision(ctx context.Context, spec chain.Spec) (*Deployment, error) {
	tr := o.hooks.Load().Tracer
	if tr == nil {
		return o.provision(ctx, spec)
	}
	parent, _ := trace.FromContext(ctx)
	c := new(trace.Carrier)
	tr.Begin(c, ctx, parent)
	start := time.Now()
	dep, err := o.provision(c, spec)
	sp := trace.Span{Parent: parent.SpanID, Name: "provision", Kind: trace.KindProvision, Start: start, End: time.Now()}
	sp.SetError(err)
	if dep != nil {
		sp.Dep = int(dep.ID)
	}
	tr.End(c, sp)
	return dep, err
}

func (o *Orchestrator) provision(ctx context.Context, spec chain.Spec) (*Deployment, error) {
	if err := spec.Validate(); err != nil {
		atomic.AddUint64(&o.provisionFail, 1)
		return nil, fmt.Errorf("orch: provision: %w", err)
	}
	flowKey := spec.Tenant + "/" + spec.Name

	// Reserve the flow key before building: two live chains sharing a
	// key would share SDN rules and WDM assignments, so the second
	// teardown would strip the survivor's connectivity.
	o.mu.Lock()
	if owner, taken := o.flowKeys[flowKey]; taken {
		o.mu.Unlock()
		atomic.AddUint64(&o.provisionFail, 1)
		return nil, fmt.Errorf("orch: provision %q: %w: flow key %q is held by deployment %d",
			spec.Name, ErrDuplicateChain, flowKey, owner)
	}
	o.flowKeys[flowKey] = 0 // reserved, no ID yet
	o.mu.Unlock()

	o.topoMu.RLock()
	defer o.topoMu.RUnlock()
	b, err := o.buildChain(ctx, spec, flowKey)
	if err != nil {
		o.mu.Lock()
		delete(o.flowKeys, flowKey)
		o.mu.Unlock()
		atomic.AddUint64(&o.provisionFail, 1)
		return nil, fmt.Errorf("orch: provision %q: %w", spec.Name, err)
	}
	defer b.release()
	atomic.AddUint64(&o.provisionOK, 1)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nextID += o.idStride
	dep := &Deployment{
		ID:      o.nextID,
		Spec:    spec,
		State:   StateActive,
		Version: 1,
		flowKey: flowKey,
	}
	b.commitLocked(dep)
	o.deployments[dep.ID] = dep
	o.flowKeys[flowKey] = dep.ID
	return snapshot(dep), nil
}

// Repair tears an active deployment's resources down and rebuilds the
// chain from scratch around the current topology state. This is the
// heavyweight path; HandleFailures prefers the differential repairs
// in reconcile.go and only falls back to this. On success the
// deployment stays Active with Repairs incremented; on failure its
// resources are released and it transitions to Failed.
func (o *Orchestrator) Repair(id DeploymentID) error {
	dep, err := o.beginExclusive(id)
	if err != nil {
		return fmt.Errorf("orch: repair: %w", err)
	}
	defer o.endExclusive(id)

	o.topoMu.RLock()
	err = o.rebuild(context.Background(), dep)
	o.topoMu.RUnlock()
	if err != nil {
		return fmt.Errorf("orch: repair %d: %w", id, err)
	}
	o.emit(Event{Kind: EventRepairCompleted, Deployment: id, Action: ActionRebuilt})
	return nil
}

// rebuild is the teardown-and-rebuild-everything repair. The caller
// holds the deployment's exclusive claim and topoMu (read side). The
// deployment stays in the reverse index throughout; the commit moves
// the index entries atomically with the fields, and the failure paths
// unindex via failLocked.
func (o *Orchestrator) rebuild(ctx context.Context, dep *Deployment) error {
	// Tear down outside the lock (manager/controller have their own).
	if err := o.teardown(dep); err != nil {
		// Resource release failed irrecoverably; mark failed.
		o.failLocked(dep)
		return fmt.Errorf("teardown: %w", err)
	}
	b, err := o.newPipeline(dep.Spec, dep.FlowKey())
	if err == nil {
		defer b.release()
		b.attachTrace(ctx)
		// With a background optimizer attached, even a full rebuild
		// leaves standby planning to the async re-protect task — no
		// standby search on the recovery path.
		b.deferStandby = o.deferReprotect
		b.drifted = true
		err = b.runFrom(stageCluster)
	}
	if err != nil {
		o.failLocked(dep)
		return fmt.Errorf("rebuild: %w", err)
	}
	o.mu.Lock()
	b.commitLocked(dep)
	dep.Repairs++
	o.repairsTotal++
	o.mu.Unlock()
	return nil
}

// failLocked transitions a deployment to Failed and frees its flow-key
// reservation and index entries (its resources are already released).
func (o *Orchestrator) failLocked(dep *Deployment) {
	o.mu.Lock()
	o.unindexLocked(dep)
	delete(o.owed, dep.ID)
	dep.State = StateFailed
	delete(o.flowKeys, dep.FlowKey())
	o.mu.Unlock()
}

// MoveNF migrates the chain's NF at position idx to another hosting-
// capable node (NFV's "deploy VNFs when and where required", §I) and
// re-provisions the path and wavelength around the new location. The
// O/E/O accounting is updated: moving a VNF between domains changes the
// conversion count exactly as §IV-D describes.
//
// The operation is transactional: the deployment record is not touched
// until the new path, wavelength and rules are all in place (rules
// swap make-before-break), and a failure after the migration moves the
// instance back to its original host, so an error never leaves the
// placement and the installed rules disagreeing.
func (o *Orchestrator) MoveNF(id DeploymentID, idx int, to topology.NodeID) error {
	rebuilt, err := o.moveNF(id, idx, to)
	// Emit only after moveNF released its locks — the sink contract
	// allows callbacks into the orchestrator's read API.
	switch {
	case rebuilt:
		// The restore-impossible fallback rebuilt the chain in place;
		// with the optimizer attached that rebuild deferred its standby,
		// so the re-protection must be enqueued like any other repair.
		o.emit(Event{Kind: EventRepairCompleted, Deployment: id, Action: ActionRebuilt})
	case err == nil:
		o.emit(Event{Kind: EventPlacementChanged, Deployment: id})
	}
	return err
}

// moveNF is MoveNF without the event emission; rebuilt reports that
// the rebuild-in-place fallback ran and left the chain active.
func (o *Orchestrator) moveNF(id DeploymentID, idx int, to topology.NodeID) (rebuilt bool, err error) {
	dep, err := o.beginExclusive(id)
	if err != nil {
		return false, fmt.Errorf("orch: move: %w", err)
	}
	defer o.endExclusive(id)
	o.topoMu.RLock()
	defer o.topoMu.RUnlock()
	o.mu.Lock()
	if idx < 0 || idx >= len(dep.Instances) {
		o.mu.Unlock()
		return false, fmt.Errorf("orch: move: NF index %d out of range [0,%d)", idx, len(dep.Instances))
	}
	inst := dep.Instances[idx]
	o.mu.Unlock()

	before := o.mgr.Instance(inst)
	if before == nil {
		return false, fmt.Errorf("orch: move: unknown instance %d", inst)
	}
	if err := o.mgr.Migrate(inst, to); err != nil {
		return false, fmt.Errorf("orch: move deployment %d NF %d: %w", id, idx, err)
	}
	migrated := o.mgr.Instance(inst)

	// Stage the new placement and re-run only the connectivity stages
	// of the pipeline (path → WDM → rules).
	p := o.pipelineFrom(context.Background(), dep)
	defer p.release()
	p.ownPlacement()
	p.place.Hosts[idx] = to
	p.place.Domains[idx] = migrated.Domain
	p.place.Conversions = placement.CountOEO(p.place.Domains, o.mode)
	if err := p.runFrom(stagePath); err != nil {
		// Re-path (or λ assignment) failed: the old rules were never
		// removed, so moving the instance back restores the previous
		// state exactly; the wavelength is re-reserved best-effort.
		if mErr := o.mgr.Migrate(inst, before.Host); mErr != nil {
			// The original host's capacity was claimed in the meantime;
			// a move-back cannot realign the record with reality, so
			// reconcile by rebuilding the chain in place (the failure
			// path transitions it to Failed).
			if rErr := o.rebuild(context.Background(), dep); rErr != nil {
				return false, fmt.Errorf("orch: move deployment %d: %v (restore: %v; %w)", id, err, mErr, rErr)
			}
			return true, fmt.Errorf("orch: move deployment %d: %v (restore failed: %v; chain rebuilt in place)", id, err, mErr)
		}
		o.restoreWavelength(dep)
		return false, fmt.Errorf("orch: move deployment %d: %w", id, err)
	}

	o.mu.Lock()
	p.commitLocked(dep)
	o.mu.Unlock()
	p.commitWDM()
	return false, nil
}

// restoreWavelength re-reserves a wavelength on the deployment's
// current path after an aborted connectivity re-run released it. The
// continuity constraint still holds; the λ value may differ from the
// original, and exhaustion leaves the flow unassigned (best-effort).
func (o *Orchestrator) restoreWavelength(dep *Deployment) {
	if o.wdm == nil {
		return
	}
	if _, ok := o.wdm.AssignmentOf(dep.FlowKey()); ok {
		return
	}
	o.mu.Lock()
	path := dep.Path
	hadLambda := dep.Lambda >= 0
	o.mu.Unlock()
	if !hadLambda {
		return
	}
	lambda := -1
	if links, err := optical.OpticalSegmentLinks(o.topo, path); err == nil && len(links) > 0 {
		if l, err := o.wdm.AssignPath(dep.FlowKey(), links); err == nil {
			lambda = l
		}
	}
	o.mu.Lock()
	dep.Lambda = lambda
	o.mu.Unlock()
}

// Modify changes a deployment's bandwidth reservation (§IV-B:
// modification of NFCs).
func (o *Orchestrator) Modify(id DeploymentID, bandwidthGbps float64) error {
	if bandwidthGbps <= 0 {
		return fmt.Errorf("orch: modify: bandwidth must be positive, got %f", bandwidthGbps)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	dep, err := o.activeLocked(id)
	if err != nil {
		return fmt.Errorf("orch: modify: %w", err)
	}
	if err := o.slices.UpdateBandwidth(dep.Slice.ID, bandwidthGbps); err != nil {
		return fmt.Errorf("orch: modify: %w", err)
	}
	dep.Spec.BandwidthGbps = bandwidthGbps
	return nil
}

// Upgrade performs a rolling version upgrade of every VNF in the chain
// (§IV-B: upgradation). It claims the deployment's exclusive-operation
// guard, so a concurrent Delete or Repair surfaces as ErrBusy instead
// of terminating instances mid-upgrade.
func (o *Orchestrator) Upgrade(id DeploymentID) error {
	dep, err := o.beginExclusive(id)
	if err != nil {
		return fmt.Errorf("orch: upgrade: %w", err)
	}
	defer o.endExclusive(id)
	o.mu.Lock()
	instances := append([]nfv.InstanceID(nil), dep.Instances...)
	o.mu.Unlock()
	for _, inst := range instances {
		if err := o.mgr.Update(inst); err != nil {
			return fmt.Errorf("orch: upgrade deployment %d: %w", id, err)
		}
	}
	o.mu.Lock()
	dep.Version++
	o.mu.Unlock()
	return nil
}

// ScaleNF scales the chain's NF at position idx to the given replica
// count (§IV-B: scaling during the VNF life cycle). Like Upgrade it
// holds the exclusive-operation guard so the instance cannot be torn
// down mid-scale by a concurrent Delete.
func (o *Orchestrator) ScaleNF(id DeploymentID, idx, replicas int) error {
	dep, err := o.beginExclusive(id)
	if err != nil {
		return fmt.Errorf("orch: scale: %w", err)
	}
	defer o.endExclusive(id)
	o.mu.Lock()
	if idx < 0 || idx >= len(dep.Instances) {
		o.mu.Unlock()
		return fmt.Errorf("orch: scale: NF index %d out of range [0,%d)", idx, len(dep.Instances))
	}
	inst := dep.Instances[idx]
	o.mu.Unlock()
	if err := o.mgr.ScaleTo(inst, replicas); err != nil {
		return fmt.Errorf("orch: scale deployment %d NF %d: %w", id, idx, err)
	}
	return nil
}

// Delete tears a deployment down: flow rules removed, VNFs terminated,
// slice and cluster released. The record leaves the shard — a Tombstone
// in a fixed ring is what the shard remembers of it — and is returned as
// the deployment's final record (state deleted). With a tracer attached
// it records a "delete" span under the span in ctx.
func (o *Orchestrator) Delete(ctx context.Context, id DeploymentID) (*Deployment, error) {
	tr := o.hooks.Load().Tracer
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

func (o *Orchestrator) delete(id DeploymentID, traceID string) (*Deployment, error) {
	dep, err := o.beginExclusive(id)
	if err != nil {
		return nil, fmt.Errorf("orch: delete: %w", err)
	}
	defer o.endExclusive(id)
	o.mu.Lock()
	o.unindexLocked(dep)
	dep.State = StateDeleted
	delete(o.flowKeys, dep.FlowKey())
	delete(o.deployments, id)
	delete(o.owed, id)
	o.deletedTotal++
	o.tombs.Push(Tombstone{
		ID: id, Name: dep.Spec.Name, Tenant: dep.Spec.Tenant, Service: dep.Spec.Service,
		DeletedAt: time.Now(), TraceID: traceID,
	})
	o.mu.Unlock()
	err = o.teardown(dep)
	o.emit(Event{Kind: EventDeploymentDeleted, Deployment: id})
	if err != nil {
		return nil, fmt.Errorf("orch: delete deployment %d: %w", id, err)
	}
	// The record left the map under this call's exclusive claim, so
	// nothing else can reach it: it is the caller's, no copy needed.
	return dep, nil
}

// ViewDeployment calls fn with the shard's live record of the deployment,
// under the shard lock, and reports whether there is one — false for an
// ID never issued or deleted (see Tombstone). fn reads the record where
// it lies: it must not keep dep or anything dep points to, call back into
// the shard, or block.
func (o *Orchestrator) ViewDeployment(id DeploymentID, fn func(dep *Deployment)) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	dep, ok := o.deployments[id]
	if ok {
		fn(dep)
	}
	return ok
}

// ViewDeployments calls fn with every record the shard holds, in ID
// order, in one hold of the shard lock: the package's one walk of whole
// records. ViewDeployment's rules for fn apply.
func (o *Orchestrator) ViewDeployments(fn func(dep *Deployment)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	order := o.viewOrder[:0]
	for _, dep := range o.deployments {
		order = append(order, dep)
	}
	slices.SortFunc(order, func(a, b *Deployment) int { return int(a.ID - b.ID) })
	for _, dep := range order {
		fn(dep)
	}
	clear(order) // a deleted chain's record must not stay reachable from here
	o.viewOrder = order
}

// Deployment returns a snapshot of the deployment, or nil when the shard
// holds no record of it — never issued, or deleted (see Tombstone).
func (o *Orchestrator) Deployment(id DeploymentID) (cp *Deployment) {
	o.ViewDeployment(id, func(dep *Deployment) { cp = snapshot(dep) })
	return cp
}

// ActiveCount returns the number of active deployments.
func (o *Orchestrator) ActiveCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, dep := range o.deployments {
		if dep.State == StateActive {
			n++
		}
	}
	return n
}

func (o *Orchestrator) activeLocked(id DeploymentID) (*Deployment, error) {
	dep, ok := o.deployments[id]
	if !ok {
		if _, deleted := findTombstone(&o.tombs, id); deleted {
			return nil, fmt.Errorf("%w: deployment %d is %s", ErrNotActive, id, StateDeleted)
		}
		return nil, fmt.Errorf("%w: %d", ErrUnknownDeployment, id)
	}
	if dep.State != StateActive {
		return nil, fmt.Errorf("%w: deployment %d is %s", ErrNotActive, id, dep.State)
	}
	return dep, nil
}

func snapshot(dep *Deployment) *Deployment {
	cp := *dep
	cp.Instances = append([]nfv.InstanceID(nil), dep.Instances...)
	cp.Path = append([]topology.NodeID(nil), dep.Path...)
	cp.Standby = dep.Standby.Clone()
	cp.idxNodes, cp.idxLinks, cp.primaryLinks = nil, nil, nil
	return &cp
}

// appendOptoelectronic appends to buf the live optoelectronic routers
// among opss, in their order.
func (o *Orchestrator) appendOptoelectronic(buf, opss []topology.NodeID) []topology.NodeID {
	for _, id := range opss {
		if n := o.topo.Node(id); n != nil && n.Optoelectronic && !n.Down {
			buf = append(buf, id)
		}
	}
	return buf
}

// appendPMs appends to buf the live PMs hosting vms, ascending, each
// once.
func (o *Orchestrator) appendPMs(buf, vms []topology.NodeID) []topology.NodeID {
	start := len(buf)
	for _, vm := range vms {
		if n := o.topo.Node(vm); n != nil {
			if host := o.topo.Node(n.Host); host != nil && !host.Down {
				buf = append(buf, n.Host)
			}
		}
	}
	slices.Sort(buf[start:])
	return buf[:start+len(slices.Compact(buf[start:]))]
}
