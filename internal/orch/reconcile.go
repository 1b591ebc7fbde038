package orch

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
)

// RepairAction classifies what the reconciliation engine did to one
// deployment after a failure, from cheapest to most expensive.
type RepairAction string

// Repair actions.
const (
	// ActionSwapped: the failure hit the primary path but the
	// precomputed standby survived — the route swapped to the standby
	// make-before-break with zero shortest-path runs; the VC, slice and
	// every VNF instance were left untouched, and the consumed standby
	// awaits replanning.
	ActionSwapped RepairAction = "swapped"
	// ActionRepathed: the failure hit the primary path and no valid
	// standby existed — the SDN path was recomputed cold and the rules
	// swapped make-before-break; the VC, slice and every VNF instance
	// were left untouched.
	ActionRepathed RepairAction = "repathed"
	// ActionRestandby: the failure consumed only the deployment's
	// standby path; the primary kept carrying traffic and only the
	// standby was replanned.
	ActionRestandby RepairAction = "restandby"
	// ActionReplaced: a failed node hosted VNF instance(s) — only those
	// instances migrated to surviving hosts, then the path was swapped;
	// the VC and slice were left untouched.
	ActionReplaced RepairAction = "replaced"
	// ActionPatched: a failed node was an OPS of the chain's AL — the
	// vertex cover was re-run over the broken portion reusing surviving
	// OPSs (cluster.PatchVC) and the slice membership swapped in place
	// (optical.PatchMembership), keeping the VC ID, slice ID and
	// bandwidth reservation; VNFs moved only if a failed OPS hosted
	// them.
	ActionPatched RepairAction = "patched"
	// ActionRebuilt: differential repair was impossible — the chain was
	// torn down and rebuilt from scratch (the pre-reconciler behavior).
	ActionRebuilt RepairAction = "rebuilt"
	// ActionFailed: no repair succeeded; the deployment's resources
	// were released and it transitioned to StateFailed.
	ActionFailed RepairAction = "failed"
	// ActionSkipped: nothing was done — the deployment was concurrently
	// deleted, already claimed by another exclusive operation, or no
	// longer touched the failed resources.
	ActionSkipped RepairAction = "skipped"
)

// RepairReport is one deployment's reconciliation outcome.
type RepairReport struct {
	ID     DeploymentID
	Action RepairAction
	// Err is set for ActionFailed, for ActionSkipped when the skip was
	// caused by a concurrent exclusive operation, and for
	// ActionRestandby when no new standby could be planned (the chain
	// keeps carrying traffic but is left unprotected).
	Err error
	// TraceID/SpanID identify the repair span recorded for this
	// deployment (empty/0 when tracing is disabled), continuing the
	// trace of the failure report that triggered the reconciliation.
	TraceID string
	SpanID  trace.SpanID
}

// Succeeded reports whether the repair left the deployment active and
// consistent with the new topology.
func (r RepairReport) Succeeded() bool {
	switch r.Action {
	case ActionSwapped, ActionRepathed, ActionRestandby, ActionReplaced, ActionPatched, ActionRebuilt:
		return true
	}
	return false
}

// RepairedIDs filters a report list down to the deployments whose
// repair succeeded, preserving order.
func RepairedIDs(reports []RepairReport) []DeploymentID {
	var out []DeploymentID
	for _, r := range reports {
		if r.Succeeded() {
			out = append(out, r.ID)
		}
	}
	return out
}

// Exclusive operations (upgrade, scale, move, delete) are short; a
// reconciliation that finds a deployment busy retries a few times
// before giving up and reporting the skip as an error.
const (
	busyRetries    = 10
	busyRetryDelay = 10 * time.Millisecond
)

// markFailuresDown is the topology half of HandleFailures: it marks
// the failed nodes and links down as one liveness transition under the
// write lock — every ID validated first, one generation bump, one
// overlay patch per cached snapshot, so a storm of dead links costs
// O(affected arcs), not O(resources) graph invalidations — and returns
// the classified failure set. It touches only shared-core state, so it
// runs exactly once regardless of how many shards reconcile afterwards.
func (c *sharedCore) markFailuresDown(f topology.Failures) (resilience.FailureSet, error) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	if err := c.topo.SetDown(f, true); err != nil {
		return resilience.FailureSet{}, fmt.Errorf("orch: failure: %w", err)
	}
	// Shared-risk groups of the dead links, collected while the
	// topology is still quiescent: standbys crossing a same-group
	// survivor are suspect and get replanned rather than swapped onto.
	return resilience.Classify(c.topo, f), nil
}

// failureRound is HandleFailures' scratch, kept on the set between calls
// (a concurrent call builds its own): its copy of the failure set and each
// shard's reconcile lists.
type failureRound struct {
	nodes  []topology.NodeID
	links  []topology.LinkID
	ctx    context.Context
	dead   resilience.FailureSet
	tr     *trace.Tracer
	parent trace.SpanContext // the span in ctx, if any: the repairs' parent
	shards []reconcile
}

// reconcile is a shard's lists in a round: the affected chains, a report
// per chain and, traced, the carrier each repair uses in turn.
type reconcile struct {
	affected []DeploymentID
	reports  []RepairReport
	carrier  trace.Carrier
}

// run is the deployment half of HandleFailures on shard o: it finds
// the shard's affected active deployments through the reverse indexes
// (O(damage), not O(deployments)) and repairs them one after another,
// one report per deployment in ID order, each traced under the span in
// the call's context when there is one.
func (rc *reconcile) run(r *failureRound, o *shard) {
	rc.affected = o.affectedBy(rc.affected[:0], r.dead)
	n := len(rc.affected)
	rc.reports = slices.Grow(rc.reports[:0], n)[:n]
	for i := range rc.affected {
		rc.repair(r, o, i)
	}
	rc.carrier = trace.Carrier{} // the carrier holds the last repair's context
}

// repair reconciles the i-th affected deployment. One repair span per
// deployment wraps the whole busy-retry loop — retries are attempts at
// the same repair, not separate operations — continuing the caller's
// trace (the failure report's HTTP span or the debouncer's batch span).
func (rc *reconcile) repair(r *failureRound, o *shard, i int) {
	id := rc.affected[i]
	ctx := r.ctx
	var c *trace.Carrier
	var start time.Time
	if r.tr != nil {
		c = &rc.carrier
		r.tr.Begin(c, r.ctx, r.parent)
		ctx = c
		start = time.Now()
	}
	rep := o.repairAround(ctx, id, r.dead)
	for attempt := 0; attempt < busyRetries &&
		rep.Action == ActionSkipped && errors.Is(rep.Err, ErrBusy); attempt++ {
		o.clock.Sleep(busyRetryDelay)
		rep = o.repairAround(ctx, id, r.dead)
	}
	if r.tr != nil {
		sp := trace.Span{Parent: r.parent.SpanID,
			Name: "repair", Kind: trace.KindRepair, Start: start, End: time.Now(),
			Dep:   int(id),
			Attrs: actionAttrs[rep.Action]}
		sp.SetError(rep.Err)
		r.tr.End(c, sp)
		rep.TraceID, rep.SpanID = c.SC.TraceID, c.SC.SpanID
	}
	rc.reports[i] = rep
}

// actionAttrs is a repair span's attribute list per action, shared: a
// recorded span is never edited.
var actionAttrs = make(map[RepairAction][]trace.Attr)

func init() {
	for _, a := range []RepairAction{ActionSwapped, ActionRepathed, ActionRestandby, ActionReplaced,
		ActionPatched, ActionRebuilt, ActionFailed, ActionSkipped} {
		actionAttrs[a] = []trace.Attr{{Key: "action", Value: string(a)}}
	}
}

// emitRepairEvents wakes the background optimizer (no locks held):
// every successful repair may have left a consumed standby or a drifted
// placement behind. All events of one HandleFailures batch carry the
// same failure domain, letting the optimizer group their follow-up
// re-protects per shared cause instead of per deployment.
func (c *sharedCore) emitRepairEvents(reports []RepairReport, domain FailureDomain) {
	for _, rep := range reports {
		if rep.Succeeded() {
			c.emit(Event{Kind: EventRepairCompleted, Deployment: rep.ID, Action: rep.Action,
				Domain: domain, TraceID: rep.TraceID, SpanID: rep.SpanID})
		}
	}
}

// failureDomain names the shared failure domain of one HandleFailures
// batch: the dead links' risk groups when any exist, otherwise the next
// batch number — either way, every repair event of the batch shares it.
func (c *sharedCore) failureDomain(dead resilience.FailureSet) FailureDomain {
	d := FailureDomain{SRLGs: dead.SRLGs}
	if len(d.SRLGs) == 0 {
		d.Batch = atomic.AddUint64(&c.batchSeq, 1)
	}
	d.key = d.String()
	return d
}

// firstRepairError folds a report list to the error HandleFailures
// surfaces: the first outright repair failure, or the first deployment
// that stayed busy through every retry (it is still Active with a dead
// resource in its footprint, and the caller must know the
// reconciliation is incomplete).
func firstRepairError(reports []RepairReport) error {
	for _, rep := range reports {
		switch {
		case rep.Action == ActionFailed:
			return fmt.Errorf("orch: repair %d: %w", rep.ID, rep.Err)
		case rep.Action == ActionSkipped && errors.Is(rep.Err, ErrBusy):
			return fmt.Errorf("orch: repair %d: %w", rep.ID, rep.Err)
		}
	}
	return nil
}

// affectedBy appends to buf the active deployments whose footprint
// intersects the failure set, each exactly once, sorted by ID — a union
// of reverse-index lookups, not a scan: the posting lists of the dead
// nodes and the suspect links, concatenated, sorted once and compacted.
// The suspect links are the dead ones plus the live links sharing a
// risk group with one: chains crossing those must be visited too, since
// their standbys may no longer be survivable.
func (o *shard) affectedBy(buf []DeploymentID, dead resilience.FailureSet) []DeploymentID {
	o.mu.Lock()
	defer o.mu.Unlock()
	start := len(buf)
	for _, node := range dead.Nodes() {
		buf = append(buf, o.nodeIndex.of(node)...)
	}
	for _, l := range dead.Suspect {
		buf = append(buf, o.linkIndex.of(l)...)
	}
	out := buf[start:]
	slices.Sort(out)
	out = slices.DeleteFunc(slices.Compact(out), func(id DeploymentID) bool {
		dep, ok := o.deployments[id]
		return !ok || dep.State != StateActive
	})
	return buf[:start+len(out)]
}

// repairAround is the per-deployment reconciler: it classifies how the
// failure set intersects the deployment's footprint, applies the
// cheapest repair that covers the whole damage, and falls back to a
// full rebuild when the differential repair is impossible.
func (o *shard) repairAround(ctx context.Context, id DeploymentID, dead resilience.FailureSet) RepairReport {
	dep, err := o.beginExclusive(id)
	if err != nil {
		// A concurrent delete/repair/move claimed the deployment; its
		// owner will observe the new topology itself.
		return RepairReport{ID: id, Action: ActionSkipped, Err: err}
	}
	defer o.endExclusive(id)
	o.topoMu.RLock()
	defer o.topoMu.RUnlock()

	// Classify the impact against the union of dead resources. The
	// deployment stays in the reverse indexes for its old footprint
	// throughout the repair — a concurrent failure of another resource
	// must still find it — and every commit point swaps the index
	// entries atomically with the fields.
	o.mu.Lock()
	hit := hitsOf(dep, dead.Failures)
	// A standby sharing a risk group with a dead link is suspect even
	// when its own resources survived: it is treated as hit (replanned)
	// and never swapped onto — "disjoint" must mean survivable.
	standbySuspect := dep.Standby != nil && dead.HitsAnySRLG(dep.Standby.SRLGs)
	hit.standby = hit.standby || standbySuspect
	standbyAlive := dep.Standby != nil && !standbySuspect &&
		resilience.PathAlive(o.topo, dep.Standby.Path)
	o.mu.Unlock()

	var action RepairAction
	var patchErr error
	switch {
	case hit.slice:
		action = ActionPatched
		patchErr = o.patchSlice(ctx, dep, dead)
	case hit.host:
		action = ActionReplaced
		patchErr = o.replaceAndRepath(ctx, dep, dead)
	case hit.path:
		if standbyAlive {
			action = ActionSwapped
			patchErr = o.swapToStandby(ctx, dep)
		} else {
			action = ActionRepathed
			patchErr = o.repath(ctx, dep)
		}
	case hit.standby:
		// The primary is intact; only the anticipation was consumed, and
		// the dead standby is dropped. With a background optimizer
		// attached that is all — the repair-completed event enqueues the
		// async re-protect, and no standby search happens on this path.
		// Inline mode re-protects here, a group of one: still off the hot
		// recovery path of any chain actually carrying traffic over dead
		// resources. A failed plan is NOT grounds for the rebuild fallback
		// — the chain still works — but the report must say the chain is
		// now unprotected instead of silently claiming re-protection.
		o.mu.Lock()
		o.setStandbyLocked(dep, nil)
		o.mu.Unlock()
		if o.deferReprotect {
			return RepairReport{ID: id, Action: ActionRestandby}
		}
		return RepairReport{ID: id, Action: ActionRestandby, Err: o.reProtectDep(dep, nil).Err}
	default:
		// The footprint changed since the index snapshot; the failure
		// no longer touches this deployment.
		return RepairReport{ID: id, Action: ActionSkipped}
	}
	if patchErr == nil {
		return RepairReport{ID: id, Action: action}
	}
	// Differential repair impossible (e.g. a dead endpoint VM, an
	// uncoverable VM group, λ exhaustion): rebuild everything.
	if err := o.rebuild(ctx, dep); err != nil {
		return RepairReport{ID: id, Action: ActionFailed, Err: err}
	}
	return RepairReport{ID: id, Action: ActionRebuilt}
}

// finishRepairFrom re-runs the pipeline from the given stage and, on
// success, commits the outcome: the reverse indexes move from the old
// to the new footprint atomically with the field update, and any two-λ
// grace window closes only after the new rules are live.
func (o *shard) finishRepairFrom(p *pipeline, dep *Deployment, first stageID) error {
	if err := p.runFrom(first); err != nil {
		return err
	}
	o.mu.Lock()
	p.commitLocked(dep)
	dep.Repairs++
	o.repairsTotal++
	o.mu.Unlock()
	p.commitWDM()
	return nil
}

// repath re-runs the connectivity stages of the pipeline (path →
// standby → wdm → rules) around the deployment's unchanged placement —
// the cold data-path repair, which also replans the standby.
func (o *shard) repath(ctx context.Context, dep *Deployment) error {
	p := o.pipelineFrom(ctx, dep)
	defer p.release()
	return o.finishRepairFrom(p, dep, stagePath)
}

// swapToStandby promotes the precomputed standby to primary: the
// pipeline re-enters at the WDM stage with the standby's route already
// in hand, so recovery performs no shortest-path computation at all —
// only a wavelength retune (two-λ grace) and a make-before-break rule
// swap. The consumed standby is cleared; a later ActionRestandby or any
// cold repair replans it.
func (o *shard) swapToStandby(ctx context.Context, dep *Deployment) error {
	p := o.pipelineFrom(ctx, dep)
	defer p.release()
	sb := dep.Standby
	p.scratch.path = append(p.scratch.path[:0], sb.Path...)
	p.path, p.primaryLinks = p.scratch.path, nil
	p.confined = sb.Confined
	p.standby = nil
	return o.finishRepairFrom(p, dep, stageWDM)
}

// replaceAndRepath migrates the VNF instances hosted on dead nodes to
// surviving hosts and re-runs the connectivity stages. The VC and slice
// are untouched.
func (o *shard) replaceAndRepath(ctx context.Context, dep *Deployment, dead resilience.FailureSet) error {
	p := o.pipelineFrom(ctx, dep)
	defer p.release()
	if err := o.migrateOff(p, dep, dead); err != nil {
		return err
	}
	p.drifted = true
	return o.finishRepairFrom(p, dep, stagePath)
}

// patchSlice handles OPS failures inside the chain's AL: the vertex
// cover is re-run over the broken portion reusing surviving OPSs, the
// slice membership swaps under the existing reservation, VNFs hosted
// on failed OPSs (they may be optoelectronic) migrate, and the
// connectivity stages re-run against the patched slice. The VC ID,
// slice ID and bandwidth reservation all survive.
func (o *shard) patchSlice(ctx context.Context, dep *Deployment, dead resilience.FailureSet) error {
	vms := o.topo.LiveVMs(dep.Spec.Service)
	if len(vms) == 0 {
		return fmt.Errorf("no live VMs offer service %q", dep.Spec.Service)
	}
	vc, err := o.alloc.PatchVC(dep.VC.ID, vms)
	if err != nil {
		return err
	}
	slice, err := o.slices.PatchMembership(dep.Slice.ID, vc.AL.OPSs)
	if err != nil {
		// The allocator is already patched; the fallback rebuild
		// releases both by ID, so no unwind is needed here.
		return err
	}
	// The membership swap changes the footprint mid-repair: keep the
	// index exact at every commit point.
	o.mu.Lock()
	dep.VC = vc
	dep.Slice = slice
	o.indexLocked(dep)
	o.mu.Unlock()
	p := o.pipelineFrom(ctx, dep) // picks up the patched VC and slice
	defer p.release()
	if err := o.migrateOff(p, dep, dead); err != nil {
		return err
	}
	p.drifted = true
	return o.finishRepairFrom(p, dep, stagePath)
}

// migrateOff moves every VNF instance the pipeline places on a dead
// node to a surviving candidate host — the AL's optoelectronic routers
// first (placement stays optical when capacity allows), then the PMs
// hosting the service's live VMs — updating the staged placement and
// its O/E/O accounting. Instances on surviving hosts are never touched.
func (o *shard) migrateOff(p *pipeline, dep *Deployment, dead resilience.FailureSet) error {
	cands := o.appendOptoelectronic(nil, p.vc.AL.OPSs)
	cands = o.appendPMs(cands, o.topo.LiveVMs(dep.Spec.Service))
	moved := false
	for idx, h := range p.place.Hosts {
		if !dead.HasNode(h) {
			continue
		}
		instID := dep.Instances[idx]
		hosted := false
		for _, cand := range cands {
			if dead.HasNode(cand) {
				continue
			}
			if err := o.mgr.Migrate(instID, cand); err != nil {
				continue
			}
			inst := o.mgr.Instance(instID)
			if !moved {
				p.ownPlacement()
			}
			p.place.Hosts[idx] = cand
			p.place.Domains[idx] = inst.Domain
			hosted = true
			moved = true
			break
		}
		if !hosted {
			return fmt.Errorf("no surviving host can take instance %d (VNF %d)", instID, idx)
		}
	}
	if moved {
		p.place.Conversions = placement.CountOEO(p.place.Domains, o.mode)
	}
	return nil
}
