// Failure recovery: the flexibility the paper's introduction promises —
// "this abstraction allows network operators to manage and modify
// networks in a highly flexible and dynamic way" — made concrete. An
// optical packet switch carrying a tenant's slice fails; the
// orchestrator rebuilds the abstraction layer around the failure,
// re-places the VNFs and re-provisions the path, all while the other
// tenants' chains stay untouched.
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

	arch, err := alvc.New(cfg, alvc.WithWavelengths(16))
	if err != nil {
		log.Fatalf("failure-recovery: %v", err)
	}

	// Two tenants, two chains.
	specA, err := alvc.LinearChain("chain-a", "tenant-a", "web", 2.0, 1<<20,
		"secgw", "firewall", "dpi")
	if err != nil {
		log.Fatalf("failure-recovery: %v", err)
	}
	depA, err := arch.Sharded().Provision(ctx, specA)
	if err != nil {
		log.Fatalf("failure-recovery: deploy a: %v", err)
	}
	specB, err := alvc.LinearChain("chain-b", "tenant-b", "mapreduce", 1.0, 1<<20,
		"firewall", "wanopt")
	if err != nil {
		log.Fatalf("failure-recovery: %v", err)
	}
	depB, err := arch.Sharded().Provision(ctx, specB)
	if err != nil {
		log.Fatalf("failure-recovery: deploy b: %v", err)
	}
	fmt.Printf("tenant-a slice: OPSs %v  λ%d\n", depA.Slice.OPSs, depA.Lambda)
	fmt.Printf("tenant-b slice: OPSs %v  λ%d\n", depB.Slice.OPSs, depB.Lambda)

	// Kill an OPS in tenant-a's slice: the orchestrator's one failure
	// entry point marks it down and repairs each chain that used it once.
	victim := depA.Slice.OPSs[0]
	fmt.Printf("\n*** OPS %d fails ***\n\n", victim)
	dead := alvc.NewFailures([]alvc.NodeID{victim}, nil)
	reports, err := arch.Sharded().HandleFailures(ctx, dead)
	if err != nil {
		log.Fatalf("failure-recovery: repair failed: %v", err)
	}
	for _, rep := range reports {
		fmt.Printf("deployment %d: %s\n", rep.ID, rep.Action)
	}

	after := arch.Deployment(depA.ID)
	fmt.Printf("tenant-a rebuilt:  OPSs %v  λ%d  (repairs: %d)\n",
		after.Slice.OPSs, after.Lambda, after.Repairs)
	for _, ops := range after.Slice.OPSs {
		if ops == victim {
			log.Fatal("failed OPS still in rebuilt slice!")
		}
	}
	untouched := arch.Deployment(depB.ID)
	fmt.Printf("tenant-b untouched: OPSs %v (repairs: %d)\n",
		untouched.Slice.OPSs, untouched.Repairs)

	// The switch comes back; new chains may use it again.
	if err := arch.Sharded().Recover(dead); err != nil {
		log.Fatalf("failure-recovery: recover: %v", err)
	}
	specC, err := alvc.LinearChain("chain-c", "tenant-c", "sns", 1.0, 1<<20, "firewall")
	if err != nil {
		log.Fatalf("failure-recovery: %v", err)
	}
	depC, err := arch.Sharded().Provision(ctx, specC)
	if err != nil {
		log.Fatalf("failure-recovery: deploy c: %v", err)
	}
	fmt.Printf("\nOPS %d recovered; tenant-c onboarded (slice %v)\n", victim, depC.Slice.OPSs)
}
