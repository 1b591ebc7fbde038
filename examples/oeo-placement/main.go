// O/E/O placement: the Fig. 8 experiment as a runnable program. One
// 3-VNF chain (two light functions, one heavy DPI) is deployed three
// times under different placement policies. For each it prints Fig. 8's
// per-VNF count — the placement's score, one conversion per electronic
// VNF — beside what the switches pay: the O/E/O excursions of the route
// the chain's rules install, and their energy, which grows with the flow
// length (§IV-D: conversion cost is proportional to flow length).
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/alvc/alvc"
)

func main() {
	policies := []struct {
		label  string
		policy alvc.PlacementPolicy
	}{
		{"all-electronic (baseline)", alvc.AllElectronic{}},
		{"optical-first  (paper)", alvc.OpticalFirst{}},
		{"optimal        (bound)", alvc.OptimalPlacement{}},
	}

	fmt.Println("Fig. 8: 3-VNF chain [secgw firewall dpi]: per-VNF count vs what the route pays")
	fmt.Println()
	for _, flowBytes := range []int64{1 << 20, 1 << 30} {
		fmt.Printf("flow length %d bytes:\n", flowBytes)
		for _, p := range policies {
			dep := deployUnder(p.policy, flowBytes)
			fmt.Printf("  %-28s per-VNF=%d  paid=%d  energy/flow=%.4f J\n",
				p.label, dep.Placement.Conversions, dep.Conversions, dep.EnergyJoules)
		}
		fmt.Println()
	}
	fmt.Println("per-VNF: moving the two light VNFs into the optical domain saves")
	fmt.Println("2 of 3 conversions; the heavy DPI exceeds optoelectronic-router")
	fmt.Println("capacity and must stay electronic (the §IV-D constraint).")
	fmt.Println("paid: all-electronic hosts the three VNFs on the source VM's own")
	fmt.Println("server, so its route reaches them before it enters the optical")
	fmt.Println("core; optical-first visits the optical VNFs first and leaves the")
	fmt.Println("core once, back to that server for the DPI.")
}

// deployUnder builds a fresh architecture with the given policy and
// deploys the Fig. 8 chain on it.
func deployUnder(policy alvc.PlacementPolicy, flowBytes int64) *alvc.Deployment {
	ctx := context.Background()
	cfg := alvc.DefaultTopology()
	cfg.Racks = 8
	cfg.OPSCount = 24
	cfg.ToRUplinks = 16
	cfg.OPSChords = 2

	arch, err := alvc.New(cfg, alvc.WithPolicy(policy))
	if err != nil {
		log.Fatalf("oeo-placement: %v", err)
	}
	spec, err := alvc.LinearChain("fig8", "tenant-a", "web", 2.0, flowBytes,
		"secgw", "firewall", "dpi")
	if err != nil {
		log.Fatalf("oeo-placement: spec: %v", err)
	}
	dep, err := arch.Sharded().Provision(ctx, spec)
	if err != nil {
		log.Fatalf("oeo-placement: deploy: %v", err)
	}
	return dep
}
