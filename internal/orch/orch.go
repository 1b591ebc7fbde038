// Package orch implements the network orchestrator of Fig. 6: the
// multi-tenant control point that "is responsible for managing
// (provisioning, creation, modification, upgradation, and deletion) of
// multiple NFCs" over the AL-VC architecture. Its one orchestrator type
// is Sharded: every verb and fleet read is its method, and its shards
// (shard.go) are the package's own partition of the control plane,
// reached by chain ID, never by index. For each chain it builds
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
	// operation (repair, edit, delete) in flight.
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
	// Version counts upgrades (ChangeVersion bumps it).
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
	// commits, cleared when a re-home migrates the chain or finds it at
	// conversion score 0, which no placement can beat. Kept beside the
	// other bool, in its padding: the record is copied per chain per list.
	Drifted bool
	// Lambda is the assigned wavelength on the path's optical segments
	// (-1 when WDM is disabled).
	Lambda int
	// Conversions is the O/E/O excursions a packet of the chain pays on
	// the route its rules install (sdn.Excursions), set whenever they
	// are installed; Placement.Conversions is placement's own score.
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
	// Builder constructs ALs (defaults to the paper's algorithm).
	Builder cluster.Builder
	// Policy places VNFs (defaults to the paper's optical-first).
	Policy placement.Policy
	// Mode is the O/E/O convention placement scores by (defaults to
	// per-VNF, Fig. 8's accounting).
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
// shard; a one-shard set is simply one shard owning the whole pool.
type sharedCore struct {
	// topoMu serializes topology mutations (node up/down transitions)
	// against the provisioning pipeline, which reads liveness bits all
	// over (VM filtering, path computation, VNF host checks). Readers —
	// a provision, a move — hold RLock; SetDown holds Lock. Kept
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

	// batchSeq numbers HandleFailures batches that hit no shared-risk
	// group, giving their repair events a unique failure domain
	// (failureDomain). Shared so sharded fleets number globally.
	batchSeq uint64

	// clock times the reconciler's busy retries.
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
		clock:          WallClock,
	}
	core.hooks.Store(&Hooks{})
	return core, nil
}

// shard is one shard of the orchestrator (Sharded), the package's own:
// it coordinates the cluster allocator, slice manager, Cloud/NFV manager
// and SDN controller for the deployments it owns. Safe for concurrent
// use. New stands up N of them over one sharedCore with partitioned OPS
// pools and strided deployment and VC IDs; every verb is the set's,
// which routes a chain's to the shard that issued its ID.
type shard struct {
	*sharedCore

	mu sync.Mutex

	// index/idStride place this shard in its set: shard s of n issues
	// deployment IDs s+1, s+1+n, s+1+2n, … so the owning shard of any ID
	// is (id-1) mod n — no shared ID allocator, no cross-shard lookup. A
	// one-shard set is shard 0 with stride 1 (IDs 1,2,3,…).
	index    int
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
	// busy marks deployments with an exclusive operation (repair, edit,
	// delete) in flight, so those verbs cannot interleave teardowns.
	busy   map[DeploymentID]bool
	nextID DeploymentID
	// serviceVCs are the service clusters Sharded.BuildServiceClusters
	// built on this shard's allocator, the only clusters ReleaseCluster
	// dissolves: every other one is a chain's. Guarded by mu.
	serviceVCs map[cluster.VCID]bool

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

// newShard assembles one orchestrator shard over an existing core.
// index is 0-based; stride is the total shard count. The first ID a
// shard issues is index+1, then it advances by stride, so shard ID
// spaces never overlap and ShardRouter.ShardOf is pure arithmetic.
func newShard(core *sharedCore, alloc *cluster.Allocator, ctrl *sdn.Controller, index, stride int) *shard {
	return &shard{
		sharedCore:  core,
		index:       index,
		idStride:    DeploymentID(stride),
		alloc:       alloc,
		ctrl:        ctrl,
		nextID:      DeploymentID(index + 1 - stride),
		deployments: make(map[DeploymentID]*Deployment),
		flowKeys:    make(map[string]DeploymentID),
		busy:        make(map[DeploymentID]bool),
		owed:        make(map[DeploymentID]*Deployment),
		serviceVCs:  make(map[cluster.VCID]bool),
		tombs:       ring.New[Tombstone](TombstoneRing),
	}
}

// beginExclusive claims the deployment for an exclusive operation. The
// caller must endExclusive when done. The returned Deployment is the
// live record; fields may only be touched under o.mu.
func (o *shard) beginExclusive(id DeploymentID) (*Deployment, error) {
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

func (o *shard) endExclusive(id DeploymentID) {
	o.mu.Lock()
	delete(o.busy, id)
	o.mu.Unlock()
}

// Manager exposes the Cloud/NFV manager every shard shares
// (Sharded.Manager). It stays exported, with Allocator, for the
// repository benchmark's tracer (benchmark/tracer.go), which reaches
// both through Sharded.Shard.
func (o *shard) Manager() *nfv.Manager { return o.mgr }

// Allocator exposes the shard's cluster allocator, for the repository
// benchmark's tracer (benchmark/tracer.go) alone.
func (o *shard) Allocator() *cluster.Allocator { return o.alloc }

// teardown releases everything a build holds. Errors are collected into
// the first non-nil one; teardown keeps going regardless.
func (o *shard) teardown(dep *Deployment) error {
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

func (o *shard) provision(ctx context.Context, spec chain.Spec) (*Deployment, error) {
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

	// The full provisioning pipeline (pipeline.go): on error it rolls
	// back all partial state it created.
	o.topoMu.RLock()
	defer o.topoMu.RUnlock()
	b, err := o.newPipeline(spec, flowKey)
	if err == nil {
		defer b.release()
		b.attachTrace(ctx)
		err = b.runFrom(stageCluster)
	}
	if err != nil {
		o.mu.Lock()
		delete(o.flowKeys, flowKey)
		o.mu.Unlock()
		atomic.AddUint64(&o.provisionFail, 1)
		return nil, fmt.Errorf("orch: provision %q: %w", spec.Name, err)
	}
	atomic.AddUint64(&o.provisionOK, 1)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nextID += o.idStride
	dep := b.recordLocked(o.nextID)
	o.deployments[dep.ID] = dep
	o.flowKeys[flowKey] = dep.ID
	return snapshot(dep), nil
}

// rebuild is the teardown-and-rebuild-everything repair. The caller
// holds the deployment's exclusive claim and topoMu (read side). The
// deployment stays in the reverse index throughout; the commit moves
// the index entries atomically with the fields, and the failure paths
// unindex via failLocked.
func (o *shard) rebuild(ctx context.Context, dep *Deployment) error {
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
		// A rebuilt chain is drifted, and with a background optimizer
		// attached a drifted pipeline leaves standby planning to the
		// async re-protect task (runStandby) — no standby search on the
		// recovery path.
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
func (o *shard) failLocked(dep *Deployment) {
	o.mu.Lock()
	o.unindexLocked(dep)
	delete(o.owed, dep.ID)
	dep.State = StateFailed
	delete(o.flowKeys, dep.FlowKey())
	o.mu.Unlock()
}

// Change is one edit of a live chain, the runtime management of §IV-B:
// exactly one of a bandwidth reservation (ChangeBandwidth), the next
// VNF version (ChangeVersion), a replica count (ChangeReplicas), a host
// (ChangeHost) at an NF index, a rebuild from scratch (ChangeRebuild),
// or the optimizer's two maintenance edits, a re-home (ChangeRehome) and
// a wavelength defragmentation (ChangeDefrag). Sharded.Apply makes it.
type Change struct {
	kind             changeKind
	nf               int
	replicas, margin int
	gbps             float64
	host             topology.NodeID
}

type changeKind uint8

const (
	changeBandwidth changeKind = iota
	changeVersion
	changeReplicas
	changeHost
	changeRebuild
	changeRehome
	changeDefrag
)

// changeVerbs names each kind in Apply's errors, as the server's routes
// and the optimizer's tasks do.
var changeVerbs = [...]string{"modify", "upgrade", "scale", "move", "repair", "rehome", "defrag"}

// ChangeBandwidth sets the chain's bandwidth reservation, in its spec
// and its optical slice (modification).
func ChangeBandwidth(gbps float64) Change { return Change{kind: changeBandwidth, gbps: gbps} }

// ChangeVersion rolls every VNF of the chain to the next version
// (upgradation).
func ChangeVersion() Change { return Change{kind: changeVersion} }

// ChangeReplicas scales the chain's NF at position nf to the given
// replica count (scaling during the VNF life cycle).
func ChangeReplicas(nf, replicas int) Change {
	return Change{kind: changeReplicas, nf: nf, replicas: replicas}
}

// ChangeHost migrates the chain's NF at position nf to another
// hosting-capable node — NFV's "deploy VNFs when and where required"
// (§I) — and re-provisions the path and wavelength around the new
// location; the O/E/O accounting follows, as §IV-D describes.
func ChangeHost(nf int, to topology.NodeID) Change {
	return Change{kind: changeHost, nf: nf, host: to}
}

// ChangeRebuild tears the chain's resources down and rebuilds it from
// scratch around the current topology state: the heavyweight repair the
// reconciler falls back to when no differential one applies. On success
// the chain stays active with Repairs incremented; on failure its
// resources are released and it transitions to Failed.
func ChangeRebuild() Change { return Change{kind: changeRebuild} }

// ChangeRehome undoes placement drift: it places the chain afresh under
// the current topology (its own instances' capacity counting as free)
// and, when that placement beats the current one by at least margin
// O/E/O conversions, moves the differing VNFs there as a ChangeHost move
// does. Within the margin — the hysteresis that keeps re-homes from
// oscillating — or when a host fills up before its VNF reaches it, the
// chain stays; at conversion score 0 it is home and loses its Drifted
// flag. margin is clamped to at least 1: a move must strictly improve.
func ChangeRehome(margin int) Change { return Change{kind: changeRehome, margin: max(margin, 1)} }

// ChangeDefrag moves the chain's flow to the lowest wavelength free on
// every optical-segment link of its path, make-before-break with the
// retune repairs use (the old channel stays lit until the move commits).
// A flow already on the lowest common channel, a chain without optical
// segments or WDM, and a moment with no spare channel are quiet no-ops.
func ChangeDefrag() Change { return Change{kind: changeDefrag} }

// Applied is what an Apply did beside its error.
type Applied struct {
	// Moved: VNFs changed hosts and the chain was re-provisioned around
	// them (a ChangeHost move, a re-home that migrated).
	Moved bool
	// Rebuilt: the chain was rebuilt in place and left active (a
	// ChangeRebuild, a move or re-home whose move-back was impossible).
	Rebuilt bool
	// LambdaFrom and LambdaTo are a ChangeDefrag's wavelength before and
	// after; they differ only when the flow was retuned.
	LambdaFrom, LambdaTo int
}

// apply is Sharded.Apply without the event emission: every kind runs
// under the chain's claim and topoMu (read side).
func (o *shard) apply(id DeploymentID, c Change) (res Applied, err error) {
	verb := changeVerbs[c.kind]
	if c.kind == changeBandwidth && c.gbps <= 0 {
		return res, fmt.Errorf("orch: modify: bandwidth must be positive, got %f", c.gbps)
	}
	dep, err := o.beginExclusive(id)
	if err != nil {
		return res, fmt.Errorf("orch: %s: %w", verb, err)
	}
	defer o.endExclusive(id)
	o.topoMu.RLock()
	defer o.topoMu.RUnlock()
	sliceID, instances := dep.Slice.ID, dep.Instances // the claim keeps both
	if (c.kind == changeReplicas || c.kind == changeHost) && (c.nf < 0 || c.nf >= len(instances)) {
		return res, fmt.Errorf("orch: %s: NF index %d out of range [0,%d)", verb, c.nf, len(instances))
	}

	switch c.kind {
	case changeBandwidth:
		slice, err := o.slices.UpdateBandwidth(sliceID, c.gbps)
		if err != nil {
			return res, fmt.Errorf("orch: modify: %w", err)
		}
		o.mu.Lock()
		dep.Slice, dep.Spec.BandwidthGbps = slice, c.gbps
		o.mu.Unlock()
	case changeVersion:
		for _, inst := range instances {
			if err := o.mgr.Update(inst); err != nil {
				return res, fmt.Errorf("orch: upgrade deployment %d: %w", id, err)
			}
		}
		o.mu.Lock()
		dep.Version++
		o.mu.Unlock()
	case changeReplicas:
		if err := o.mgr.ScaleTo(instances[c.nf], c.replicas); err != nil {
			return res, fmt.Errorf("orch: scale deployment %d NF %d: %w", id, c.nf, err)
		}
	case changeHost:
		res.Moved, res.Rebuilt, err = o.move(dep, c.nf, c.host)
	case changeRebuild:
		if err := o.rebuild(context.Background(), dep); err != nil {
			return res, fmt.Errorf("orch: repair %d: %w", id, err)
		}
		res.Rebuilt = true
	case changeRehome:
		res.Moved, res.Rebuilt, err = o.rehome(dep, c.margin)
	case changeDefrag:
		res.LambdaFrom, res.LambdaTo, err = o.defrag(dep)
	}
	return res, err
}

// move is ChangeHost's body: the NF at index idx goes to host to.
func (o *shard) move(dep *Deployment, idx int, to topology.NodeID) (moved, rebuilt bool, err error) {
	var buf [8]topology.NodeID
	hosts := append(buf[:0], dep.Placement.Hosts...)
	hosts[idx] = to
	rebuilt, err = o.relocate(dep, hosts, dep.Drifted)
	if me, ok := err.(migrateError); ok {
		return false, false, fmt.Errorf("orch: move deployment %d NF %d: %w", dep.ID, idx, me.error)
	}
	if err != nil {
		return false, rebuilt, fmt.Errorf("orch: move deployment %d: %w", dep.ID, err)
	}
	return true, false, nil
}

// migrateError is a migration relocate refused and fully undid: the
// chain stands as it was.
type migrateError struct{ error }

// relocate is the one relocation transaction, a ChangeHost move's and a
// re-home's: it migrates every instance whose host differs from hosts,
// re-runs path → WDM → rules around the new hosts (the rules swap
// make-before-break) and commits the record, drifted its Drifted flag.
// A failure moves every migrated instance back and re-reserves the
// wavelength, so an error never leaves the placement and the installed
// rules disagreeing; only when a move-back is impossible is the chain
// rebuilt in place (rebuilt). A refused migration that was fully undone
// answers a migrateError. Errors carry no "orch:" prefix, the caller's.
// The caller holds the chain's claim and topoMu (read side).
func (o *shard) relocate(dep *Deployment, hosts []topology.NodeID, drifted bool) (rebuilt bool, err error) {
	from := dep.Placement.Hosts
	p := o.pipelineFrom(context.Background(), dep)
	defer p.release()
	p.ownPlacement()
	for idx, to := range hosts {
		if to == from[idx] {
			continue
		}
		if err := o.mgr.Migrate(dep.Instances[idx], to); err != nil {
			return o.moveBack(dep, hosts, idx, migrateError{err})
		}
		// The domain the manager gave the instance, so the record never
		// disagrees with it.
		p.place.Hosts[idx] = to
		p.place.Domains[idx], _ = o.mgr.Ledger().Domain(to)
	}
	p.place.Conversions = placement.CountOEO(p.place.Domains, o.mode)
	p.drifted = drifted
	if err := p.runFrom(stagePath); err != nil {
		// Re-path (or λ assignment) failed: the old rules were never
		// removed, so moving the instances back restores the previous
		// state exactly.
		return o.moveBack(dep, hosts, len(hosts), err)
	}
	o.mu.Lock()
	p.commitLocked(dep)
	o.mu.Unlock()
	p.commitWDM()
	return false, nil
}

// moveBack undoes relocate's migrations at the positions below n and
// re-reserves the wavelength, answering cause. When an instance cannot
// move back — its host's capacity was claimed in the meantime — no
// move-back can realign the record with reality: the chain is rebuilt in
// place, and a failed rebuild leaves it Failed.
func (o *shard) moveBack(dep *Deployment, hosts []topology.NodeID, n int, cause error) (rebuilt bool, err error) {
	var mErr error
	for idx := n - 1; idx >= 0; idx-- {
		if from := dep.Placement.Hosts[idx]; hosts[idx] != from {
			if err := o.mgr.Migrate(dep.Instances[idx], from); err != nil && mErr == nil {
				mErr = err
			}
		}
	}
	if mErr == nil {
		o.restoreWavelength(dep)
		return false, cause
	}
	if rErr := o.rebuild(context.Background(), dep); rErr != nil {
		return false, fmt.Errorf("%v (restore: %v; %w)", cause, mErr, rErr)
	}
	return true, fmt.Errorf("%v (restore failed: %v; chain rebuilt in place)", cause, mErr)
}

// restoreWavelength re-reserves a wavelength on the chain's current
// path after an aborted connectivity re-run released it. The continuity
// constraint still holds; the λ value may differ from the original, and
// exhaustion leaves the flow unassigned (best-effort). The caller holds
// the chain's claim.
func (o *shard) restoreWavelength(dep *Deployment) {
	if o.wdm == nil || dep.Lambda < 0 {
		return
	}
	if _, ok := o.wdm.AssignmentOf(dep.FlowKey()); ok {
		return
	}
	lambda := -1
	if links, err := optical.OpticalSegmentLinks(o.topo, dep.Path); err == nil && len(links) > 0 {
		if l, err := o.wdm.AssignPath(dep.FlowKey(), links); err == nil {
			lambda = l
		}
	}
	o.mu.Lock()
	dep.Lambda = lambda
	o.mu.Unlock()
}

func (o *shard) delete(id DeploymentID, traceID string) (*Deployment, error) {
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

// viewDeployments calls fn with every record the shard holds, in ID
// order, in one hold of the shard lock: the package's one walk of whole
// records. Sharded.ViewDeployment's rules for fn apply.
func (o *shard) viewDeployments(fn func(dep *Deployment)) {
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

func (o *shard) activeLocked(id DeploymentID) (*Deployment, error) {
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

// The record blocks: a provisioned chain's record with its lists inline.
// nodes holds Placement.Hosts, Path and idxNodes, links primaryLinks and
// idxLinks; the arrays fill the size classes, 704 and 768 bytes with the
// runtime's 8-byte header, and hold the fleets' two- and three-NF chains.
type (
	recordBlock2 struct {
		dep       Deployment
		instances [2]nfv.InstanceID
		domains   [2]topology.Domain
		nodes     [20]topology.NodeID
		links     [15]topology.LinkID
	}
	recordBlock3 struct {
		dep       Deployment
		instances [3]nfv.InstanceID
		domains   [3]topology.Domain
		nodes     [24]topology.NodeID
		links     [17]topology.LinkID
	}
)

// newRecord copies d and its lists into a record block when they fit one
// with index lists of nodes and links entries, else into a record and an
// array per element type. The lists a snapshot or a caller can reach are
// clipped; the index lists, the shard's own, start empty for
// retargetLocked and take the rest of their arrays, to grow in place.
func newRecord(d *Deployment, nodes, links int) *Deployment {
	nf, h, p, l := len(d.Instances), len(d.Placement.Hosts), len(d.Placement.Hosts)+len(d.Path), len(d.primaryLinks)
	var (
		dep  *Deployment
		inst []nfv.InstanceID
		doms []topology.Domain
		ns   []topology.NodeID
		ls   []topology.LinkID
	)
	switch {
	case nf <= len(recordBlock2{}.instances) && p+nodes <= len(recordBlock2{}.nodes) && l+links <= len(recordBlock2{}.links):
		b := new(recordBlock2)
		dep, inst, doms, ns, ls = &b.dep, b.instances[:], b.domains[:], b.nodes[:], b.links[:]
	case nf <= len(recordBlock3{}.instances) && p+nodes <= len(recordBlock3{}.nodes) && l+links <= len(recordBlock3{}.links):
		b := new(recordBlock3)
		dep, inst, doms, ns, ls = &b.dep, b.instances[:], b.domains[:], b.nodes[:], b.links[:]
	default:
		dep, inst, doms = new(Deployment), make([]nfv.InstanceID, nf), make([]topology.Domain, nf)
		ns, ls = make([]topology.NodeID, p+nodes), make([]topology.LinkID, l+links)
	}
	*dep = *d
	dep.Instances, dep.Placement.Domains = resilience.CopyInto(inst, d.Instances), resilience.CopyInto(doms, d.Placement.Domains)
	ns = append(append(ns[:0], d.Placement.Hosts...), d.Path...)
	dep.Placement.Hosts, dep.Path, dep.idxNodes = ns[:h:h], ns[h:p:p], ns[p:p]
	ls = append(ls[:0], d.primaryLinks...)
	dep.primaryLinks, dep.idxLinks = ls[:l:l], ls[l:l]
	return dep
}

// snapshotBlock is a two-NF chain's snapshot, its standby in S; snapshotBlock3 a three-NF one's.
type (
	snapshotBlock[S any] struct {
		dep       Deployment
		instances [2]nfv.InstanceID
		path      [7]topology.NodeID
		standby   S
	}
	snapshotBlock3 struct {
		dep       Deployment
		instances [3]nfv.InstanceID
		path      [11]topology.NodeID
		standby   resilience.Block11
	}
)

// snapshot copies the record, its Instances, Path and Standby: into one
// block when the lists fit a two-NF chain's, beside the block Clone gives
// the standby, or fill a three-NF chain's; else into the record and an
// array per list. Sharded.Deployments says what it shares with the record.
func snapshot(dep *Deployment) *Deployment {
	if len(dep.Instances) <= len(snapshotBlock[struct{}]{}.instances) && len(dep.Path) <= len(snapshotBlock[struct{}]{}.path) {
		switch dep.Standby.BlockNodes() {
		case 7:
			return snapshotIn(dep, (*resilience.Block7).Copy)
		case 9:
			return snapshotIn(dep, (*resilience.Block9).Copy)
		case 11:
			return snapshotIn(dep, (*resilience.Block11).Copy)
		case 13:
			return snapshotIn(dep, (*resilience.Block13).Copy)
		case 15:
			return snapshotIn(dep, (*resilience.Block15).Copy)
		}
	}
	if len(dep.Instances) <= len(snapshotBlock3{}.instances) && len(dep.Path) <= len(snapshotBlock3{}.path) &&
		dep.Standby.BlockNodes() == 11 {
		b := &snapshotBlock3{dep: *dep}
		b.dep.Standby = b.standby.Copy(dep.Standby)
		return fillSnapshot(&b.dep, b.instances[:], b.path[:])
	}
	cp := *dep
	cp.Standby = dep.Standby.Clone()
	return fillSnapshot(&cp, nil, nil)
}

// snapshotIn is snapshot into a snapshotBlock[S], whose standby copyTo fills.
func snapshotIn[S any](dep *Deployment, copyTo func(*S, *resilience.Standby) *resilience.Standby) *Deployment {
	b := &snapshotBlock[S]{dep: *dep}
	b.dep.Standby = copyTo(&b.standby, dep.Standby)
	return fillSnapshot(&b.dep, b.instances[:], b.path[:])
}

// fillSnapshot copies cp's Instances and Path, into the arrays given when they fit.
func fillSnapshot(cp *Deployment, instances []nfv.InstanceID, path []topology.NodeID) *Deployment {
	cp.Instances, cp.Path = resilience.CopyInto(instances, cp.Instances), resilience.CopyInto(path, cp.Path)
	cp.idxNodes, cp.idxLinks, cp.primaryLinks = nil, nil, nil
	return cp
}

// appendOptoelectronic appends to buf the live optoelectronic routers
// among opss, in their order.
func (o *shard) appendOptoelectronic(buf, opss []topology.NodeID) []topology.NodeID {
	for _, id := range opss {
		if n := o.topo.Node(id); n != nil && n.Optoelectronic && !n.Down {
			buf = append(buf, id)
		}
	}
	return buf
}

// appendPMs appends to buf the live PMs hosting vms, ascending, each
// once.
func (o *shard) appendPMs(buf, vms []topology.NodeID) []topology.NodeID {
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
