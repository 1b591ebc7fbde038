package orch

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/topology"
)

// replaySeed drives a four-shard fleet through two batches, three tray
// cuts and their recoveries with every fan-out on a seeded serial
// runner, auditing every shard's indexes after each step. It returns
// what the fleet did — every batch result and repair report, then every
// deployment and every shard's rule tables, rendered — and the order the
// runner ran each fan-out in.
func replaySeed(t *testing.T, seed int64) (string, [][]int) {
	topo := benchFleetTopo(t, 24)
	s, err := New(Config{Topo: topo}, 4, ShardByTenant)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	runner := newSeededRunner(seed)
	s.core.pool = runner // the set's own pool never started a worker
	var out strings.Builder
	audit := func(step string) {
		for i := 0; i < len(s.shards); i++ {
			if bad := auditIndexes(s.shards[i]); len(bad) > 0 {
				t.Fatalf("seed %d, %s: shard %d: %d differences, first: %s", seed, step, i, len(bad), bad[0])
			}
		}
	}
	batch := func(first, n int) {
		specs := make([]chain.Spec, n)
		for i := range specs {
			specs[i] = residentSpec(t, first+i, fmt.Sprintf("t%d", first+i))
		}
		for _, res := range s.ProvisionBatch(specs, 4) {
			if res.Err != nil {
				fmt.Fprintf(&out, "spec %d: %v\n", first+res.Index, res.Err)
			} else {
				fmt.Fprintf(&out, "spec %d: chain %d\n", first+res.Index, res.Deployment.ID)
			}
		}
		audit(fmt.Sprintf("batch from %d", first))
	}

	batch(0, 12)
	for round := 0; round < 3; round++ {
		// Three chains' primary entry and standby exit links on one tray.
		deps := slices.DeleteFunc(s.Deployments(), func(dep *Deployment) bool { return dep.State != StateActive })
		var tray []topology.LinkID
		for v := 0; v < 3; v++ {
			dep := deps[(3*round+v)%len(deps)]
			tray = appendUnseen(tray, transitLinks(t, topo, dep.Path)[:1])
			if dep.Standby != nil {
				stby := transitLinks(t, topo, dep.Standby.Path)
				tray = appendUnseen(tray, stby[len(stby)-1:])
			}
		}
		reports, err := s.HandleFailures(bg, topology.NewFailures(nil, tray))
		fmt.Fprintf(&out, "cut %v: %v\n", tray, err)
		for _, rep := range reports {
			fmt.Fprintf(&out, "  chain %d %s %v\n", rep.ID, rep.Action, rep.Err)
		}
		audit(fmt.Sprintf("cut %d", round))
		for _, l := range tray {
			if err := s.Recover(topology.NewFailures(nil, []topology.LinkID{l})); err != nil {
				t.Fatalf("Recover: %v", err)
			}
		}
		audit(fmt.Sprintf("recovery %d", round))
	}
	batch(12, 4)

	for _, dep := range s.Deployments() {
		fmt.Fprintf(&out, "chain %d %s/%s %s v%d repairs %d slice %v hosts %v path %v drifted %v",
			dep.ID, dep.Spec.Tenant, dep.Spec.Name, dep.State, dep.Version, dep.Repairs,
			dep.Slice.OPSs, dep.Placement.Hosts, dep.Path, dep.Drifted)
		if dep.Standby != nil {
			fmt.Fprintf(&out, " standby %v disjoint %v", dep.Standby.Path, dep.Standby.Disjoint)
		}
		out.WriteByte('\n')
	}
	for i := 0; i < len(s.shards); i++ {
		ctrl := s.shards[i].ctrl
		fmt.Fprintf(&out, "shard %d rules %d\n", i, ctrl.RuleCount())
		for _, dep := range s.Deployments() {
			for _, r := range ctrl.RulesForFlow(dep.FlowKey()) {
				fmt.Fprintf(&out, "shard %d rule %+v\n", i, r)
			}
		}
	}
	return out.String(), runner.orders
}

// TestFanOutsReplayFromASeed: with the fan-outs run serially in a seeded
// order, one seed names one run. Over 200 seeds of batches, tray cuts
// through HandleFailures and recoveries on a four-shard fleet, the same
// seed run twice gives the same batch results, repair reports,
// deployments and per-shard rule tables; every shard's indexes audit
// clean after every step; and the seeds do order the fan-outs
// differently.
func TestFanOutsReplayFromASeed(t *testing.T) {
	const seeds = 200
	var firstOrders [][]int
	reordered, outcomes := false, make(map[string]bool)
	for seed := int64(1); seed <= seeds; seed++ {
		got, orders := replaySeed(t, seed)
		again, _ := replaySeed(t, seed)
		if got != again {
			t.Fatalf("seed %d ran twice gives two runs:\n%s\nthen:\n%s", seed, got, again)
		}
		outcomes[got] = true
		if firstOrders == nil {
			firstOrders = orders
		} else if !slices.EqualFunc(orders, firstOrders, slices.Equal[[]int]) {
			reordered = true
		}
	}
	if !reordered {
		t.Fatalf("%d seeds ran every fan-out in one order", seeds)
	}
	t.Logf("%d seeds, %d distinct runs", seeds, len(outcomes))
}
