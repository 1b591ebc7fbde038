package orch

// The two bounded, copy-free views the orchestrator gives of its fleet
// besides the whole-record reads (Deployment, Deployments):
// ChainHealth, the by-value per-chain summary the background
// optimizer's sweeps read, and Tombstone, what is left of a chain once
// Delete has taken its record out of the deployment map.

import (
	"slices"
	"time"

	"github.com/alvc/alvc/internal/ring"
)

// ChainHealth is what a fleet sweep needs to know about one active
// chain to decide which maintenance it is owed: no pointers, so a sweep
// copies a few words per chain instead of the deployment record.
type ChainHealth struct {
	ID DeploymentID
	// Disjoint reports a planned standby that shares no transit node,
	// link or risk group with the primary; false also when the chain
	// has no standby at all.
	Disjoint bool
	// Drifted is the deployment's Drifted flag.
	Drifted bool
	// Lambda is the chain's wavelength (-1 without WDM).
	Lambda int
}

func healthOf(dep *Deployment) ChainHealth {
	return ChainHealth{
		ID:       dep.ID,
		Disjoint: dep.Standby != nil && dep.Standby.Disjoint,
		Drifted:  dep.Drifted,
		Lambda:   dep.Lambda,
	}
}

// AppendChainHealth appends one entry per active deployment of every
// shard to buf — with owed, per active chain in the shards'
// maintenance-owed indexes only: the chains without a disjoint standby
// or Drifted, what a recovery can help, so it reads, copies and sorts
// those and not the fleet. It sorts the appended part by ID, so a sweep
// sees the same order at any shard count, and allocates only when buf
// has to grow.
func (s *Sharded) AppendChainHealth(buf []ChainHealth, owed bool) []ChainHealth {
	out := buf
	for _, o := range s.shards {
		o.mu.Lock()
		deps := o.deployments
		if owed {
			deps = o.owed
		}
		for _, dep := range deps {
			if dep.State == StateActive {
				out = append(out, healthOf(dep))
			}
		}
		o.mu.Unlock()
	}
	slices.SortFunc(out[len(buf):], func(a, b ChainHealth) int { return int(a.ID - b.ID) })
	return out
}

// Tombstone is what a shard remembers of a deleted chain: enough to
// answer "what was deployment N" and to find the trace of its delete.
type Tombstone struct {
	ID                    DeploymentID
	Name, Tenant, Service string
	DeletedAt             time.Time
	// TraceID is the trace the delete recorded its span in ("" when
	// tracing is off).
	TraceID string
}

// TombstoneRing is how many deleted chains each shard remembers; older
// ones answer as unknown.
const TombstoneRing = 64

// findTombstone returns the ring's tombstone of id, if it holds one.
func findTombstone(r *ring.Ring[Tombstone], id DeploymentID) (Tombstone, bool) {
	for i := 0; i < r.Len(); i++ {
		if t := r.At(i); t.ID == id {
			return t, true
		}
	}
	return Tombstone{}, false
}

// Tombstone returns the tombstone of a deleted deployment while its
// shard's ring still holds it.
func (s *Sharded) Tombstone(id DeploymentID) (Tombstone, bool) {
	o := s.owner(id)
	o.mu.Lock()
	defer o.mu.Unlock()
	return findTombstone(&o.tombs, id)
}

// Tombstones merges every shard's ring, sorted by ID.
func (s *Sharded) Tombstones() []Tombstone {
	var out []Tombstone
	for _, o := range s.shards {
		o.mu.Lock()
		out = o.tombs.AppendTo(out)
		o.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b Tombstone) int { return int(a.ID - b.ID) })
	return out
}
