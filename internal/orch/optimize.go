package orch

// The background optimizer's two per-chain edits, ChangeRehome and
// ChangeDefrag: Apply kinds like the operator's, run under the chain's
// exclusive claim and topoMu by shard.apply, so a task colliding with an
// in-flight repair, edit or delete surfaces as ErrBusy and is requeued
// by the engine (internal/optimizer) rather than interleaving teardowns.
// The engine reads what they did from Apply's Applied: Moved for a
// re-home, LambdaFrom and LambdaTo for a defrag. Re-protection is
// group.go's.

import (
	"fmt"

	"github.com/alvc/alvc/internal/optical"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/topology"
)

// rehome is ChangeRehome's body; margin is at least 1. A score is never
// negative and BetterBy is current minus candidate, so a chain already
// scoring below the margin cannot be beaten by it: the fresh placement
// is skipped altogether. At score 0 nothing ever will beat it, whatever
// recovers: the chain is home.
func (o *shard) rehome(dep *Deployment, margin int) (moved, rebuilt bool, err error) {
	o.mu.Lock()
	score := placement.Score(dep.Placement)
	if score == 0 && dep.Drifted {
		dep.Drifted = false
		o.noteOwedLocked(dep)
	}
	o.mu.Unlock()
	if score < margin {
		return false, false, nil
	}
	return o.rehomeClaimed(dep, margin)
}

// rehomeClaimed is rehome past the floor test: it places the chain
// afresh and relocates it when the placement wins by margin. The
// relocation clears Drifted (the policy's own choice under today's
// topology), and each migration it commits is reported to Hooks.Rehome.
func (o *shard) rehomeClaimed(dep *Deployment, margin int) (moved, rebuilt bool, err error) {
	id := dep.ID
	profiles, err := appendProfiles(nil, dep.Spec.NFs)
	if err != nil {
		return false, false, fmt.Errorf("orch: rehome %d: %w", id, err)
	}
	opticalHosts := o.appendOptoelectronic(nil, dep.VC.AL.OPSs)
	electronicHosts := o.appendPMs(nil, o.topo.LiveVMs(dep.Spec.Service))
	// A pooled pipeline lends its placement scratch: the capacity tables
	// run to the highest candidate ID, so a fresh pair for each re-home
	// would cost tens of kilobytes on a wide fabric.
	p := o.getPipeline()
	defer p.release()
	ctx, err := p.scratch.place.Context(o.topo, o.mgr.Ledger(), opticalHosts, electronicHosts, profiles, o.mode)
	if err != nil {
		return false, false, fmt.Errorf("orch: rehome %d: %w", id, err)
	}
	// Credit the chain's own current reservations back: the comparison
	// is "where would this chain go if placed fresh", and its instances
	// vacate their hosts as part of the move.
	for _, instID := range dep.Instances {
		inst := o.mgr.Instance(instID)
		if inst == nil {
			continue
		}
		if ctx.Candidate(inst.Host) {
			ctx.Free[inst.Host] = ctx.Free[inst.Host].Add(inst.Demand.Scale(float64(inst.Replicas)))
		}
	}
	cand, err := o.policy.Place(ctx)
	if err != nil || placement.BetterBy(dep.Placement, cand) < margin {
		// No feasible fresh placement (capacity shrank since), or none
		// that wins by the margin: the current placement stands.
		return false, false, nil
	}
	from := dep.Placement.Hosts
	rebuilt, err = o.relocate(dep, cand.Hosts, false)
	if _, ok := err.(migrateError); ok {
		// A host filled up between scoring and moving: stand pat.
		return false, false, nil
	}
	if err != nil {
		return false, rebuilt, fmt.Errorf("orch: rehome %d: %w", id, err)
	}
	if obs := o.hooks.Load().Rehome; obs != nil {
		for idx, to := range cand.Hosts {
			if to != from[idx] {
				obs(o.rackOf(from[idx]), o.rackOf(to))
			}
		}
	}
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

// defrag is ChangeDefrag's body: it answers the chain's wavelength
// before and after, -1 and -1 without WDM.
func (o *shard) defrag(dep *Deployment) (from, to int, err error) {
	if o.wdm == nil {
		return -1, -1, nil
	}
	o.mu.Lock()
	lambda, path, key := dep.Lambda, dep.Path, dep.FlowKey()
	o.mu.Unlock()
	if lambda <= 0 {
		// Unassigned, or already on the lowest channel.
		return lambda, lambda, nil
	}
	links, segErr := optical.OpticalSegmentLinks(o.topo, path)
	if segErr != nil || len(links) == 0 {
		return lambda, lambda, nil
	}
	candidate, rErr := o.wdm.RetuneBegin(key, links)
	if rErr != nil {
		// No spare channel right now; defrag is strictly opportunistic.
		return lambda, lambda, nil
	}
	if candidate >= lambda {
		_ = o.wdm.RetuneAbort(key)
		return lambda, lambda, nil
	}
	if cErr := o.wdm.RetuneCommit(key); cErr != nil {
		return lambda, lambda, fmt.Errorf("orch: defrag %d: %w", dep.ID, cErr)
	}
	o.mu.Lock()
	dep.Lambda = candidate
	o.mu.Unlock()
	return lambda, candidate, nil
}
