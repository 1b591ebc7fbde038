package orch

import (
	"context"
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

// bg is what the package's tests pass where a request context goes.
var bg = context.Background()

// newTestSet builds an n-shard orchestrator over cfg.
func newTestSet(t testing.TB, cfg Config, n int) *Sharded {
	t.Helper()
	s, err := New(cfg, n, ShardByTenant)
	if err != nil {
		t.Fatalf("New(%d shards): %v", n, err)
	}
	return s
}

// newTestOrch builds a one-shard orchestrator over cfg and returns it
// with its only shard: s takes every verb, o is what a test inspects.
func newTestOrch(t testing.TB, cfg Config) (s *Sharded, o *shard) {
	t.Helper()
	s = newTestSet(t, cfg, 1)
	return s, s.shards[0]
}

// activeCount sums the shards' active chains.
func activeCount(s *Sharded) (n int) {
	for _, st := range s.ShardStats() {
		n += st.Active
	}
	return n
}

// standbyFallbacks sums the shards' whole-fabric standby fallbacks.
func standbyFallbacks(s *Sharded) (n int64) {
	for _, st := range s.ShardStats() {
		n += st.StandbyFallbacks
	}
	return n
}

// failNode and failLink are the one-resource forms of HandleFailures.
func failNode(s *Sharded, n topology.NodeID) ([]RepairReport, error) {
	return s.HandleFailures(bg, topology.NewFailures([]topology.NodeID{n}, nil))
}

func failLink(s *Sharded, l topology.LinkID) ([]RepairReport, error) {
	return s.HandleFailures(bg, topology.NewFailures(nil, []topology.LinkID{l}))
}

// reProtect re-protects one chain as a group of one with no domain, the
// way the optimizer's per-chain task does.
func reProtect(s *Sharded, id DeploymentID) GroupOutcome {
	return s.ReProtectGroup(nil, FailureDomain{}, []DeploymentID{id})[0]
}
