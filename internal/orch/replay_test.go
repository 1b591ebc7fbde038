package orch

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/topology"
)

// replayScript drives a four-shard fleet through two batches, three tray
// cuts and their recoveries, auditing every shard's indexes after each
// step. It returns what the fleet did — every batch result and repair
// report, then every deployment and every shard's rule tables, rendered.
func replayScript(t *testing.T) string {
	topo := benchFleetTopo(t, 24)
	s, err := New(Config{Topo: topo}, 4, ShardByTenant)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var out strings.Builder
	audit := func(step string) {
		for i := 0; i < len(s.shards); i++ {
			if bad := auditIndexes(s.shards[i]); len(bad) > 0 {
				t.Fatalf("%s: shard %d: %d differences, first: %s", step, i, len(bad), bad[0])
			}
		}
	}
	batch := func(first, n int) {
		specs := make([]chain.Spec, n)
		for i := range specs {
			specs[i] = residentSpec(t, first+i, fmt.Sprintf("t%d", first+i))
		}
		for _, res := range s.ProvisionBatch(specs) {
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
	return out.String()
}

// TestFanOutsReplayInInputOrder: every fan-out — a batch's specs, the
// shards of a failure report, a shard's repairs — runs in input order on
// its caller, so the script of batches, tray cuts through HandleFailures
// and recoveries on a four-shard fleet, run twice, gives the same batch
// results, repair reports, deployments and per-shard rule tables, and
// every shard's indexes audit clean after every step.
func TestFanOutsReplayInInputOrder(t *testing.T) {
	if got, again := replayScript(t), replayScript(t); got != again {
		t.Fatalf("the script run twice gives two runs:\n%s\nthen:\n%s", got, again)
	}
}
