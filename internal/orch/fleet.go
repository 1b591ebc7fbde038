package orch

// The two bounded, copy-free views a shard gives of its fleet besides
// the whole-record reads (Deployment, Deployments): ChainHealth, the
// by-value per-chain summary the background optimizer's sweeps read,
// and Tombstone, what is left of a chain once Delete has taken its
// record out of the deployment map.

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

// appendChainHealth appends one entry per active deployment of the
// shard to buf, in map order.
func (o *Orchestrator) appendChainHealth(buf []ChainHealth) []ChainHealth {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, dep := range o.deployments {
		if dep.State == StateActive {
			buf = append(buf, healthOf(dep))
		}
	}
	return buf
}

// appendOwedHealth is appendChainHealth over the maintenance-owed index
// alone: the active chains without a disjoint standby or Drifted. It
// reads what a recovery can help, not the fleet.
func (o *Orchestrator) appendOwedHealth(buf []ChainHealth) []ChainHealth {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, dep := range o.owed {
		buf = append(buf, healthOf(dep))
	}
	return buf
}

// sortAppended sorts by ID what a sweep appended to buf, and returns the
// extended slice.
func sortAppended(buf, extended []ChainHealth) []ChainHealth {
	slices.SortFunc(extended[len(buf):], func(a, b ChainHealth) int { return int(a.ID - b.ID) })
	return extended
}

// AppendChainHealth appends one entry per active deployment of every
// shard to buf and sorts the appended part by ID, so a sweep sees the
// same order at any shard count. It allocates only when buf has to
// grow.
func (s *Sharded) AppendChainHealth(buf []ChainHealth) []ChainHealth {
	out := buf
	for _, sh := range s.shards {
		out = sh.appendChainHealth(out)
	}
	return sortAppended(buf, out)
}

// AppendOwedHealth is AppendChainHealth over the shards'
// maintenance-owed indexes: it reads, copies and sorts what a recovery
// can help, not the fleet.
func (s *Sharded) AppendOwedHealth(buf []ChainHealth) []ChainHealth {
	out := buf
	for _, sh := range s.shards {
		out = sh.appendOwedHealth(out)
	}
	return sortAppended(buf, out)
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

// Tombstone returns the tombstone of a deleted deployment while the
// shard's ring still holds it.
func (o *Orchestrator) Tombstone(id DeploymentID) (Tombstone, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return findTombstone(&o.tombs, id)
}

// Tombstones returns the shard's ring sorted by ID.
func (o *Orchestrator) Tombstones() []Tombstone {
	o.mu.Lock()
	out := o.tombs.AppendTo(nil)
	o.mu.Unlock()
	sortTombstones(out)
	return out
}

func sortTombstones(ts []Tombstone) {
	slices.SortFunc(ts, func(a, b Tombstone) int { return int(a.ID - b.ID) })
}

// Tombstone routes to the owning shard.
func (s *Sharded) Tombstone(id DeploymentID) (Tombstone, bool) { return s.owner(id).Tombstone(id) }

// Tombstones merges every shard's ring, sorted by ID.
func (s *Sharded) Tombstones() []Tombstone {
	var out []Tombstone
	for _, sh := range s.shards {
		out = append(out, sh.Tombstones()...)
	}
	sortTombstones(out)
	return out
}
