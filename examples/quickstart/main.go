// Quickstart: generate a small AL-VC data center, build one virtual
// cluster per service (paper §III), and deploy a first network function
// chain (paper §IV) — the five-minute tour of the public API: alvc.New
// stands the management stack up, and every chain verb is called on its
// orchestrator, arch.Sharded().
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/alvc/alvc"
)

func main() {
	ctx := context.Background()
	// A small data center: 8 racks behind a 24-OPS optical core. Wide
	// uplink windows leave room for several disjoint abstraction
	// layers.
	cfg := alvc.DefaultTopology()
	cfg.Racks = 8
	cfg.OPSCount = 24
	cfg.ToRUplinks = 16
	cfg.OPSChords = 2

	arch, err := alvc.New(cfg)
	if err != nil {
		log.Fatalf("quickstart: %v", err)
	}
	s := arch.Summarize()
	fmt.Printf("data center: %d racks, %d PMs, %d VMs, %d OPSs (%d optoelectronic)\n",
		s.ToRs, s.PMs, s.VMs, s.OPSs, s.OptoelectronicOPSs)

	// §III: service-based virtual clusters. Each cluster's abstraction
	// layer is the minimum OPS set connecting its VMs.
	vcs, err := arch.Sharded().BuildServiceClusters()
	if err != nil {
		log.Fatalf("quickstart: clusters: %v", err)
	}
	fmt.Println("\nvirtual clusters (one per service):")
	for _, vc := range vcs {
		fmt.Printf("  %-10s %3d VMs  -> AL of %d OPSs via %d ToRs\n",
			vc.Service, len(vc.VMs), vc.AL.Size(), len(vc.AL.ToRs))
	}
	// Release them so the chain below can claim OPSs.
	for _, vc := range vcs {
		if err := arch.Sharded().ReleaseCluster(vc.ID); err != nil {
			log.Fatalf("quickstart: release: %v", err)
		}
	}

	// §IV: deploy one chain. The orchestrator builds a dedicated
	// cluster, hands its AL to the tenant as an optical slice, places
	// light VNFs on optoelectronic routers and installs flow rules.
	spec, err := alvc.LinearChain("hello-chain", "tenant-a", "web",
		2.0 /* Gbps */, 1<<20 /* 1 MiB flows */, "firewall", "lb", "dpi")
	if err != nil {
		log.Fatalf("quickstart: spec: %v", err)
	}
	dep, err := arch.Sharded().Provision(ctx, spec)
	if err != nil {
		log.Fatalf("quickstart: deploy: %v", err)
	}
	fmt.Printf("\ndeployed %q:\n", spec.Name)
	fmt.Printf("  abstraction layer: %d OPSs (optical slice for %s)\n", dep.VC.AL.Size(), spec.Tenant)
	fmt.Printf("  VNF domains:       %v\n", dep.Placement.Domains)
	fmt.Printf("  path hops:         %d (slice-confined: %v)\n", len(dep.Path)-1, dep.SliceConfined)
	fmt.Printf("  O/E/O conversions: %d  (energy %.4f J per flow)\n", dep.Conversions, dep.EnergyJoules)

	// Measure 100 representative flows through the deployed chain.
	res, err := arch.MeasureDeployment(dep.ID, 100)
	if err != nil {
		log.Fatalf("quickstart: measure: %v", err)
	}
	fmt.Printf("\nmeasured over %d flows: mean latency %.1f µs, total energy %.3f J\n",
		res.Flows, res.MeanLatencyUs, res.TotalEnergyJoules)
}
