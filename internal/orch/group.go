package orch

// Re-protection: the one way a chain's standby is re-planned after it
// was consumed, dropped or planned around an outage. The optimizer hands
// each failure domain's group over at once, a chain with no domain as a
// group of one; the reconciler's inline restandby runs the same member
// body.

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"github.com/alvc/alvc/internal/resilience"
)

// GroupOutcome is one member chain's result within a re-protection
// pass.
type GroupOutcome struct {
	ID DeploymentID
	// Standby is the chain's protection after the pass: its immutable
	// record, not a copy (nil when the chain was left unprotected).
	Standby *resilience.Standby
	// Replanned reports whether the standby was re-planned (false when
	// the existing standby was alive and disjoint, when a failed search
	// left a live one in place, or when the member was skipped).
	Replanned bool
	// Fallback reports that the plan retried on the whole fabric after
	// the shard's OPS pool offered no route, or none disjoint.
	Fallback bool
	// Err carries the member's failure: ErrBusy when a concurrent
	// exclusive operation owned the chain (the caller should requeue
	// it), or the planning error that left the chain unprotected.
	Err error
}

// ReProtectGroup ensures every given chain has the best standby the
// current topology allows, as one failure-domain group: every member's
// standby avoids the domain's risk groups on top of the member's own
// primary (the zero domain adds none, and a group of one is then exactly
// a per-chain re-protect). A standby that is alive and disjoint is left
// alone; anything else — consumed, dead, or planned non-disjoint around
// an outage that has since healed — is re-planned. Busy members are
// skipped with ErrBusy in their outcome (never blocked on), and a failed
// plan drops a dead standby rather than leaving a stale alternate
// indexed.
//
// Outcomes are appended to buf, one per member in ascending ID order.
// ids is reordered in place: sorted by owning shard, then ID, so each
// shard's members are one run that shard re-protects under one hold of
// its topology read lock, in the calling goroutine.
func (s *Sharded) ReProtectGroup(buf []GroupOutcome, domain FailureDomain, ids []DeploymentID) []GroupOutcome {
	buf = slices.Grow(buf, len(ids))
	slices.SortFunc(ids, func(a, b DeploymentID) int {
		return cmp.Or(cmp.Compare(s.router.ShardOf(a), s.router.ShardOf(b)), cmp.Compare(a, b))
	})
	first := len(buf)
	for lo := 0; lo < len(ids); {
		sh := s.router.ShardOf(ids[lo])
		hi := lo + 1
		for hi < len(ids) && s.router.ShardOf(ids[hi]) == sh {
			hi++
		}
		buf = s.shards[sh].reProtectGroup(buf, domain.SRLGs, ids[lo:hi])
		lo = hi
	}
	slices.SortFunc(buf[first:], func(a, b GroupOutcome) int { return cmp.Compare(a.ID, b.ID) })
	return buf
}

// reProtectGroup is ReProtectGroup on one shard's members, in the order
// given. The topology read lock is held once across them, so a
// structural mutation waits for the pass rather than splitting it.
func (o *shard) reProtectGroup(buf []GroupOutcome, srlgs []int, ids []DeploymentID) []GroupOutcome {
	o.topoMu.RLock()
	defer o.topoMu.RUnlock()
	for _, id := range ids {
		dep, err := o.beginExclusive(id)
		if err != nil {
			buf = append(buf, GroupOutcome{ID: id, Err: fmt.Errorf("orch: re-protect: %w", err)})
			continue
		}
		buf = append(buf, o.reProtectDep(dep, srlgs))
		o.endExclusive(id)
	}
	return buf
}

// reProtectDep re-protects one member, avoiding srlgs on top of its
// primary. The caller holds the deployment's exclusive claim and
// topoMu.RLock.
func (o *shard) reProtectDep(dep *Deployment, srlgs []int) GroupOutcome {
	out := GroupOutcome{ID: dep.ID}
	o.mu.Lock()
	cur := dep.Standby
	o.mu.Unlock()
	alive := cur != nil && resilience.PathAlive(o.topo, cur.Path)
	if alive && cur.Disjoint {
		out.Standby = cur
		return out
	}
	p := o.pipelineFrom(context.Background(), dep)
	defer p.release()
	var planErr error
	out.Fallback, planErr = p.planStandby(srlgs)
	if planErr != nil && alive {
		// The current standby still works; a failed search for a better
		// one must not strip the protection the chain has.
		out.Standby = cur
		return out
	}
	// A failed plan leaves p.standby nil: the dead (or absent) standby is
	// dropped so the reverse index stops routing failures at a stale
	// alternate. Otherwise the chain's footprint is what it was, and the
	// commit costs the standby's own nodes and links.
	o.mu.Lock()
	o.setStandbyLocked(dep, p.standby)
	o.mu.Unlock()
	out.Standby, out.Replanned = p.standby, true
	if planErr != nil {
		out.Err = fmt.Errorf("orch: re-protect %d: chain left unprotected: %w", dep.ID, planErr)
	}
	return out
}
