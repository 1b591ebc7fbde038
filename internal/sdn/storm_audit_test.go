package sdn_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/sdn"
	"github.com/alvc/alvc/internal/topology"
)

// stormArch is a dual-homed four-shard fleet on a wide core, with the
// optimizer drained by hand and a debouncer only a flush ends — the
// failure_storm shape — whose controllers record every memo question
// from the first provision on.
func stormArch(t *testing.T, chains int) *alvc.Architecture {
	t.Helper()
	cfg := alvc.DefaultTopology()
	cfg.Racks, cfg.PMsPerRack, cfg.VMsPerPM = 4, 2, 2
	cfg.OPSCount = chains + 8
	cfg.ToRUplinks, cfg.OPSChords, cfg.DualHomeFrac = cfg.OPSCount, 0, 1
	cfg.Services = []string{"web"}
	cfg.PMCapacity = topology.Resources{CPUCores: 1 << 20, MemoryGB: 1 << 20, StorageGB: 1 << 20}
	arch, err := alvc.New(cfg, alvc.WithShards(4),
		alvc.WithOptimizer(alvc.OptimizerOptions{}), alvc.WithFailureDebounce(time.Hour))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < len(arch.Sharded().ShardStats()); i++ {
		sdn.RecordMemoQuestions(shardController(arch, i))
	}
	specs := make([]alvc.Spec, chains)
	for i := range specs {
		if specs[i], err = alvc.LinearChain(fmt.Sprintf("c-%d", i), fmt.Sprintf("t-%d", i), "web", 1, 1<<20, "firewall", "nat"); err != nil {
			t.Fatalf("LinearChain: %v", err)
		}
	}
	for _, res := range arch.Sharded().ProvisionBatch(specs) {
		if res.Err != nil {
			t.Fatalf("provision %d: %v", res.Index, res.Err)
		}
	}
	return arch
}

// trayLinks is what one tray cut takes from each chain, as the
// benchmark's storm round does: the primary's first transit link and the
// standby's last, so every victim needs a real re-path.
func trayLinks(t *testing.T, arch *alvc.Architecture, tray []alvc.DeploymentID) []alvc.LinkID {
	t.Helper()
	topo := arch.Topology()
	transit := func(path []alvc.NodeID) []alvc.LinkID {
		var out []alvc.LinkID
		for i := 0; i+1 < len(path); i++ {
			a, b := topo.Node(path[i]).Kind, topo.Node(path[i+1]).Kind
			if (a == topology.KindToR || a == topology.KindOPS) && (b == topology.KindToR || b == topology.KindOPS) {
				out = append(out, topo.LinkBetween(path[i], path[i+1]).ID)
			}
		}
		return out
	}
	seen := make(map[alvc.LinkID]bool)
	var links []alvc.LinkID
	for _, id := range tray {
		dep := arch.Deployment(id)
		if dep.Standby == nil {
			t.Fatalf("chain %d entered the round unprotected", id)
		}
		prim, stby := transit(dep.Path), transit(dep.Standby.Path)
		for _, l := range []alvc.LinkID{prim[0], stby[len(stby)-1]} {
			if !seen[l] {
				seen[l] = true
				links = append(links, l)
			}
		}
	}
	return links
}

// shardController is shard i's SDN controller: the one deployment ID
// i+1 routes to, as shard i issues it.
func shardController(arch *alvc.Architecture, i int) *sdn.Controller {
	return arch.Sharded().ControllerOf(alvc.DeploymentID(i + 1))
}

// audit runs the memo audit on every shard's controller and returns how
// many entries it checked.
func audit(t *testing.T, arch *alvc.Architecture, when string) int {
	t.Helper()
	total := 0
	for i := 0; i < len(arch.Sharded().ShardStats()); i++ {
		checked, bad := sdn.AuditMemo(shardController(arch, i))
		for _, b := range bad {
			t.Errorf("%s, shard %d: %s", when, i, b)
		}
		total += checked
	}
	return total
}

// TestMemoAuditAfterStormDrains: storm rounds as the benchmark runs them
// — a tray cut through the debouncer, a flush, a drain, the recovery and
// a second drain — three times over one tray, so the third meets the
// states of the first. After every drain each memo entry a planner could
// be served in the fabric's state equals a fresh search.
func TestMemoAuditAfterStormDrains(t *testing.T) {
	arch := stormArch(t, 32)
	var tray []alvc.DeploymentID
	for _, dep := range arch.Sharded().Deployments()[:8] {
		tray = append(tray, dep.ID)
	}
	checked := audit(t, arch, "after provisioning")
	for round := 1; round <= 3; round++ {
		links := trayLinks(t, arch, tray)
		for _, l := range links {
			arch.Debouncer().Report(context.Background(), topology.NewFailures(nil, []alvc.LinkID{l}))
		}
		if _, err := arch.FlushFailures(); err != nil {
			t.Fatalf("round %d: flush: %v", round, err)
		}
		arch.Optimizer().Drain()
		checked += audit(t, arch, fmt.Sprintf("round %d, tray cut", round))
		for _, l := range links {
			if err := arch.Sharded().Recover(topology.NewFailures(nil, []topology.LinkID{l})); err != nil {
				t.Fatalf("Recover: %v", err)
			}
		}
		arch.Optimizer().Drain()
		checked += audit(t, arch, fmt.Sprintf("round %d, recovered", round))
	}
	if checked == 0 {
		t.Fatal("the audits checked no entry")
	}
	t.Logf("%d entries audited", checked)
}
