// NFC orchestration: the Fig. 5 scenario — three per-application
// service chains (blue, black, green), each with its own NF sequence,
// orchestrated over one shared AL-VC substrate. Each chain gets its own
// virtual cluster, abstraction layer and flow rules; the ALs are
// pairwise disjoint (one OPS never serves two chains).
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/alvc/alvc"
)

func main() {
	ctx := context.Background()
	cfg := alvc.DefaultTopology()
	cfg.Racks = 8
	cfg.OPSCount = 24
	cfg.ToRUplinks = 16
	cfg.OPSChords = 2
	cfg.Services = []string{"web", "mapreduce", "sns"}

	arch, err := alvc.New(cfg)
	if err != nil {
		log.Fatalf("nfc-orchestration: %v", err)
	}

	// The three chains of Fig. 5: distinct NF sets per application.
	chains := []struct {
		name, tenant, service string
		nfs                   []string
	}{
		{"blue", "tenant-blue", "web", []string{"secgw", "firewall", "dpi"}},
		{"black", "tenant-black", "mapreduce", []string{"firewall", "wanopt"}},
		{"green", "tenant-green", "sns", []string{"secgw", "lb", "firewall"}},
	}

	var deps []*alvc.Deployment
	for _, c := range chains {
		spec, err := alvc.LinearChain(c.name, c.tenant, c.service, 2.0, 1<<20, c.nfs...)
		if err != nil {
			log.Fatalf("nfc-orchestration: spec %s: %v", c.name, err)
		}
		dep, err := arch.Sharded().Provision(ctx, spec)
		if err != nil {
			log.Fatalf("nfc-orchestration: deploy %s: %v", c.name, err)
		}
		deps = append(deps, dep)
		fmt.Printf("%-6s %v\n", c.name, c.nfs)
		fmt.Printf("       AL: %d OPSs   path: %d hops   conversions: %d\n",
			dep.VC.AL.Size(), len(dep.Path)-1, dep.Conversions)
	}

	// Verify the paper's disjointness rule across the three chains.
	owned := map[alvc.NodeID]string{}
	for i, dep := range deps {
		for _, ops := range dep.VC.AL.OPSs {
			if prev, clash := owned[ops]; clash {
				log.Fatalf("OPS %d serves both %s and %s — disjointness violated!",
					ops, prev, chains[i].name)
			}
			owned[ops] = chains[i].name
		}
	}
	fmt.Printf("\n%d OPSs allocated across 3 chains — all abstraction layers disjoint ✓\n", len(owned))

	// Flow rules are isolated per chain: inspect the controller.
	for i, dep := range deps {
		rules := arch.Sharded().ControllerOf(dep.ID).RulesForFlow(dep.FlowKey())
		fmt.Printf("%-6s flow rules installed: %d (one per hop)\n", chains[i].name, len(rules))
	}
}
