// Scaling: the Cloud/NFV manager's scale-out/scale-in path (§IV-B —
// "managing the VNFs during its lifetime, such as VNF creation,
// scaling, termination, and update"). A chain's electronic-hosted DPI
// stage is scaled out under rising load and back in, while the
// capacity-limited optoelectronic routers refuse replicas that do not
// fit — the §IV-D constraint made visible.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/topology"
)

func main() {
	ctx := context.Background()
	cfg := alvc.DefaultTopology()
	cfg.Racks = 8
	cfg.OPSCount = 24
	cfg.ToRUplinks = 16
	cfg.OPSChords = 2

	arch, err := alvc.New(cfg)
	if err != nil {
		log.Fatalf("scaling: %v", err)
	}
	spec, err := alvc.LinearChain("web-chain", "tenant-a", "web", 2.0, 1<<20,
		"firewall", "lb", "dpi")
	if err != nil {
		log.Fatalf("scaling: spec: %v", err)
	}
	dep, err := arch.Sharded().Provision(ctx, spec)
	if err != nil {
		log.Fatalf("scaling: deploy: %v", err)
	}

	// Find the DPI stage (electronic: too heavy for the routers).
	dpiIdx := -1
	for i, d := range dep.Placement.Domains {
		if d == topology.DomainElectronic {
			dpiIdx = i
			break
		}
	}
	if dpiIdx < 0 {
		log.Fatal("scaling: no electronic stage found")
	}
	mgr := arch.Sharded().Manager()
	instID := dep.Instances[dpiIdx]
	host := mgr.Instance(instID).Host

	fmt.Printf("chain deployed; stage %d (%s) on node %d\n",
		dpiIdx, mgr.Instance(instID).Type, host)
	fmt.Printf("host utilisation before scale-out: %s\n", mgr.Ledger().Used(host))

	// Scale out under load: 1 -> 4 replicas.
	for replicas := 2; replicas <= 4; replicas++ {
		if _, err := arch.Sharded().Apply(dep.ID, alvc.ChangeReplicas(dpiIdx, replicas)); err != nil {
			log.Fatalf("scaling: scale to %d: %v", replicas, err)
		}
		fmt.Printf("scaled to %d replicas; host now at %s\n",
			replicas, mgr.Ledger().Used(host))
	}

	// Scale back in as load drops.
	if _, err := arch.Sharded().Apply(dep.ID, alvc.ChangeReplicas(dpiIdx, 1)); err != nil {
		log.Fatalf("scaling: scale in: %v", err)
	}
	fmt.Printf("scaled in to 1 replica; host back to %s\n", mgr.Ledger().Used(host))

	// The optical domain cannot absorb the same growth: optoelectronic
	// routers are deliberately small (§IV-D). Find an optical stage and
	// push it past the router's capacity.
	for i, d := range dep.Placement.Domains {
		if d == topology.DomainOptical {
			if _, err := arch.Sharded().Apply(dep.ID, alvc.ChangeReplicas(i, 50)); err != nil {
				fmt.Printf("\noptical stage %d refused 50 replicas as expected:\n  %v\n", i, err)
			} else {
				fmt.Println("\nunexpected: optical stage absorbed 50 replicas")
			}
			break
		}
	}

	// The manager's audit log records every lifecycle transition.
	events := mgr.Events()
	fmt.Printf("\nlifecycle audit log: %d events (last 3):\n", len(events))
	for _, ev := range events[max(0, len(events)-3):] {
		fmt.Printf("  #%d instance %d: %s -> %s (%s)\n", ev.Seq, ev.Instance, ev.From, ev.To, ev.Note)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
