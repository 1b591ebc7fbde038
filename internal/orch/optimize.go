package orch

// The background-optimization entry points: the orchestrator-side
// operations the maintenance engine (internal/optimizer) executes off
// the request and recovery hot paths (re-protection is group.go's). Each takes the per-deployment
// exclusive-operation guard, so a task colliding with an in-flight
// repair/move/delete surfaces as ErrBusy and is requeued by the
// engine rather than interleaving teardowns.

import (
	"context"
	"fmt"

	"github.com/alvc/alvc/internal/nfv"
	"github.com/alvc/alvc/internal/optical"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/topology"
)

// Rehome undoes rebuild-induced placement drift: it computes a fresh
// placement for the chain under the current topology (as if the chain
// were lifted and re-placed, so capacity currently held by its own
// instances counts as available) and, when the fresh placement scores
// better than the current one by at least margin conversions, migrates
// the differing VNFs and re-provisions connectivity make-before-break.
// Placements within the margin are left alone — the hysteresis that
// keeps repeated re-home passes from oscillating. margin is clamped to
// at least 1 (a move must strictly improve the score).
//
// The operation is transactional like a ChangeHost move: a failure after any
// migration moves the instances back, and only an impossible restore
// falls back to an in-place rebuild.
func (s *Sharded) Rehome(id DeploymentID, margin int) (moved bool, err error) {
	moved, rebuilt, err := s.owner(id).rehome(id, margin)
	// Emit only after rehome released its locks — the sink contract
	// allows callbacks into the orchestrator's read API.
	switch {
	case rebuilt:
		// The restore-impossible fallback rebuilt the chain in place;
		// that rebuild deferred its standby, so the re-protection must
		// be enqueued like any other repair.
		s.core.emit(Event{Kind: EventRepairCompleted, Deployment: id, Action: ActionRebuilt})
	case moved && err == nil:
		s.core.emit(Event{Kind: EventPlacementChanged, Deployment: id})
	}
	return moved, err
}

// rehome is Rehome without the event emission; rebuilt reports that
// the rebuild-in-place fallback ran and left the chain active.
func (o *shard) rehome(id DeploymentID, margin int) (moved, rebuilt bool, err error) {
	if margin < 1 {
		margin = 1
	}
	dep, err := o.beginExclusive(id)
	if err != nil {
		return false, false, fmt.Errorf("orch: rehome: %w", err)
	}
	defer o.endExclusive(id)
	// A score is never negative and BetterBy is current minus candidate,
	// so a chain already scoring below the margin cannot be beaten by it:
	// skip the fresh placement altogether. At score 0 nothing ever will
	// beat it, whatever recovers: the chain is home.
	o.mu.Lock()
	score := placement.Score(dep.Placement)
	atFloor := score < margin
	if score == 0 && dep.Drifted {
		dep.Drifted = false
		o.noteOwedLocked(dep)
	}
	o.mu.Unlock()
	if atFloor {
		return false, false, nil
	}
	o.topoMu.RLock()
	defer o.topoMu.RUnlock()
	return o.rehomeClaimed(dep, margin)
}

// rehomeClaimed is the evaluate-and-migrate body of rehome. The caller
// holds the deployment's exclusive claim and topoMu (read side), and
// passes margin >= 1.
func (o *shard) rehomeClaimed(dep *Deployment, margin int) (moved, rebuilt bool, err error) {
	id := dep.ID
	profiles, err := appendProfiles(nil, dep.Spec.NFs)
	if err != nil {
		return false, false, fmt.Errorf("orch: rehome %d: %w", id, err)
	}

	o.mu.Lock()
	curPlace := dep.Placement
	curHosts := append([]topology.NodeID(nil), dep.Placement.Hosts...)
	instances := append([]nfv.InstanceID(nil), dep.Instances...)
	o.mu.Unlock()

	opticalHosts := o.appendOptoelectronic(nil, dep.VC.AL.OPSs)
	electronicHosts := o.appendPMs(nil, o.topo.LiveVMs(dep.Spec.Service))
	ctx, err := placement.NewContext(o.topo, o.mgr.Ledger(), opticalHosts, electronicHosts, profiles, o.mode)
	if err != nil {
		return false, false, fmt.Errorf("orch: rehome %d: %w", id, err)
	}
	// Credit the chain's own current reservations back: the comparison
	// is "where would this chain go if placed fresh", and its instances
	// vacate their hosts as part of the move.
	for _, instID := range instances {
		inst := o.mgr.Instance(instID)
		if inst == nil {
			continue
		}
		if free, ok := ctx.Free[inst.Host]; ok {
			ctx.Free[inst.Host] = free.Add(inst.Demand.Scale(float64(inst.Replicas)))
		}
	}
	cand, err := o.policy.Place(ctx)
	if err != nil {
		// No feasible fresh placement (capacity shrank since): the
		// current placement stands; nothing to optimize.
		return false, false, nil
	}
	if placement.BetterBy(curPlace, cand) < margin {
		return false, false, nil
	}

	// Migrate the differing positions, remembering the originals for
	// rollback.
	type moveRec struct {
		idx  int
		from topology.NodeID
	}
	var done []moveRec
	restore := func() error {
		var firstErr error
		for i := len(done) - 1; i >= 0; i-- {
			if mErr := o.mgr.Migrate(instances[done[i].idx], done[i].from); mErr != nil && firstErr == nil {
				firstErr = mErr
			}
		}
		return firstErr
	}
	for idx := range cand.Hosts {
		if cand.Hosts[idx] == curHosts[idx] {
			continue
		}
		if mErr := o.mgr.Migrate(instances[idx], cand.Hosts[idx]); mErr != nil {
			// A host filled up between scoring and moving; put the
			// already-moved instances back and stand pat.
			if rErr := restore(); rErr != nil {
				if rbErr := o.rebuild(context.Background(), dep); rbErr != nil {
					return false, false, fmt.Errorf("orch: rehome %d: %v (restore: %v; %w)", id, mErr, rErr, rbErr)
				}
				return true, true, fmt.Errorf("orch: rehome %d: %v (restore failed: %v; chain rebuilt in place)", id, mErr, rErr)
			}
			return false, false, nil
		}
		done = append(done, moveRec{idx: idx, from: curHosts[idx]})
	}
	if len(done) == 0 {
		return false, false, nil
	}
	if obs := o.hooks.Load().Rehome; obs != nil {
		for _, m := range done {
			obs(o.rackOf(m.from), o.rackOf(cand.Hosts[m.idx]))
		}
	}

	// Re-provision connectivity around the new hosts (path → wdm →
	// rules, make-before-break). Domains come from the migrated
	// instances so the record never disagrees with the manager.
	p := o.pipelineFrom(context.Background(), dep)
	defer p.release()
	p.place = cand
	for idx := range p.place.Hosts {
		if inst := o.mgr.Instance(instances[idx]); inst != nil {
			p.place.Domains[idx] = inst.Domain
		}
	}
	p.place.Conversions = placement.CountOEO(p.place.Domains, o.mode)
	p.drifted = false // the policy's own choice under today's topology
	if err := p.runFrom(stagePath); err != nil {
		if rErr := restore(); rErr != nil {
			if rbErr := o.rebuild(context.Background(), dep); rbErr != nil {
				return false, false, fmt.Errorf("orch: rehome %d: %v (restore: %v; %w)", id, err, rErr, rbErr)
			}
			return true, true, fmt.Errorf("orch: rehome %d: %v (restore failed: %v; chain rebuilt in place)", id, err, rErr)
		}
		o.restoreWavelength(dep)
		return false, false, fmt.Errorf("orch: rehome %d: %w", id, err)
	}
	o.mu.Lock()
	p.commitLocked(dep)
	o.mu.Unlock()
	p.commitWDM()
	return true, false, nil
}

// rackOf resolves a host's rack for the re-home churn observer (-1
// when the node is unknown or rackless, e.g. an optoelectronic OPS).
func (o *shard) rackOf(host topology.NodeID) int {
	if n := o.topo.Node(host); n != nil {
		return n.Rack
	}
	return -1
}

// DefragLambda consolidates the deployment's wavelength assignment
// during quiet periods: when a lower wavelength is free on every
// optical-segment link of the chain's current path, the flow is moved
// there make-before-break with the same RetuneBegin/Commit machinery
// repairs use (the old channel stays lit until the move commits).
// Returns the channel indices before/after and whether a retune
// happened; a flow already on the lowest common channel, a chain
// without optical segments, or a moment with no spare channel are all
// quiet no-ops.
func (s *Sharded) DefragLambda(id DeploymentID) (from, to int, retuned bool, err error) {
	o := s.owner(id)
	dep, err := o.beginExclusive(id)
	if err != nil {
		return 0, 0, false, fmt.Errorf("orch: defrag: %w", err)
	}
	defer o.endExclusive(id)
	o.topoMu.RLock()
	defer o.topoMu.RUnlock()

	if o.wdm == nil {
		return -1, -1, false, nil
	}
	o.mu.Lock()
	lambda := dep.Lambda
	path := append([]topology.NodeID(nil), dep.Path...)
	key := dep.FlowKey()
	o.mu.Unlock()
	if lambda <= 0 {
		// Unassigned, or already on the lowest channel.
		return lambda, lambda, false, nil
	}
	links, segErr := optical.OpticalSegmentLinks(o.topo, path)
	if segErr != nil || len(links) == 0 {
		return lambda, lambda, false, nil
	}
	candidate, rErr := o.wdm.RetuneBegin(key, links)
	if rErr != nil {
		// No spare channel right now; defrag is strictly opportunistic.
		return lambda, lambda, false, nil
	}
	if candidate >= lambda {
		_ = o.wdm.RetuneAbort(key)
		return lambda, lambda, false, nil
	}
	if cErr := o.wdm.RetuneCommit(key); cErr != nil {
		return lambda, lambda, false, fmt.Errorf("orch: defrag %d: %w", id, cErr)
	}
	o.mu.Lock()
	dep.Lambda = candidate
	o.mu.Unlock()
	return lambda, candidate, true, nil
}
