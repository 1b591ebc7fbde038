// Multitenant: the Fig. 7 scenario — each tenant's chain receives its
// own optical slice (the abstraction layer of its virtual cluster) and
// full lifecycle control: modify bandwidth, upgrade VNF versions, and
// delete, with resources returning to the shared pool.
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
		log.Fatalf("multitenant: %v", err)
	}

	// Three tenants, one chain each.
	tenants := []struct {
		tenant, service string
		nfs             []string
	}{
		{"acme", "web", []string{"firewall", "lb"}},
		{"globex", "mapreduce", []string{"secgw", "wanopt"}},
		{"initech", "sns", []string{"firewall", "dpi"}},
	}
	var deps []*alvc.Deployment
	for _, tn := range tenants {
		spec, err := alvc.LinearChain(tn.tenant+"-chain", tn.tenant, tn.service, 1.0, 1<<20, tn.nfs...)
		if err != nil {
			log.Fatalf("multitenant: spec: %v", err)
		}
		dep, err := arch.Sharded().Provision(ctx, spec)
		if err != nil {
			log.Fatalf("multitenant: deploy %s: %v", tn.tenant, err)
		}
		deps = append(deps, dep)
		fmt.Printf("%-8s slice #%d: %d OPSs @ %.1f Gbps\n",
			tn.tenant, dep.Slice.ID, len(dep.Slice.OPSs), dep.Slice.BandwidthGbps)
	}

	// Tenant "acme" upgrades to more bandwidth and a new VNF version:
	// two edits through the orchestrator's one edit verb, Apply.
	acme := deps[0]
	if _, err := arch.Sharded().Apply(acme.ID, alvc.ChangeBandwidth(5.0)); err != nil {
		log.Fatalf("multitenant: modify: %v", err)
	}
	if _, err := arch.Sharded().Apply(acme.ID, alvc.ChangeVersion()); err != nil {
		log.Fatalf("multitenant: upgrade: %v", err)
	}
	upgraded := arch.Deployment(acme.ID)
	fmt.Printf("\nacme upgraded: bandwidth %.1f Gbps, chain version %d\n",
		upgraded.Spec.BandwidthGbps, upgraded.Version)

	// Tenant "globex" leaves; its slice returns to the pool.
	summaryBefore := arch.Summarize()
	if _, err := arch.Sharded().Delete(ctx, deps[1].ID); err != nil {
		log.Fatalf("multitenant: delete: %v", err)
	}
	summaryAfter := arch.Summarize()
	fmt.Printf("\nglobex deleted: active deployments %d -> %d, rules %d -> %d\n",
		summaryBefore.ActiveDeployments, summaryAfter.ActiveDeployments,
		summaryBefore.InstalledRules, summaryAfter.InstalledRules)

	// A new tenant can immediately reuse the freed OPSs.
	spec, err := alvc.LinearChain("umbrella-chain", "umbrella", "mapreduce", 1.0, 1<<20, "firewall")
	if err != nil {
		log.Fatalf("multitenant: spec: %v", err)
	}
	dep, err := arch.Sharded().Provision(ctx, spec)
	if err != nil {
		log.Fatalf("multitenant: redeploy: %v", err)
	}
	fmt.Printf("umbrella onboarded on freed resources: slice #%d with %d OPSs\n",
		dep.Slice.ID, len(dep.Slice.OPSs))
}
