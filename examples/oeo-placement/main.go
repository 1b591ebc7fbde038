// O/E/O placement: the Fig. 8 experiment as a runnable program. One
// 3-VNF chain (two light functions, one heavy DPI) is deployed three
// times under different placement policies; moving low-demand VNFs into
// the optical domain's optoelectronic routers saves O/E/O conversions,
// and the saving is worth more the longer the flow (§IV-D: conversion
// cost is proportional to flow length).
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

	fmt.Println("Fig. 8: 3-VNF chain [secgw firewall dpi], per-VNF O/E/O accounting")
	fmt.Println()
	for _, flowBytes := range []int64{1 << 20, 1 << 30} {
		fmt.Printf("flow length %d bytes:\n", flowBytes)
		for _, p := range policies {
			conversions, energy := deployUnder(p.policy, flowBytes)
			fmt.Printf("  %-28s conversions=%d  energy/flow=%.4f J\n",
				p.label, conversions, energy)
		}
		fmt.Println()
	}
	fmt.Println("moving the two light VNFs into the optical domain saves 2 of 3")
	fmt.Println("conversions; the heavy DPI exceeds optoelectronic-router capacity")
	fmt.Println("and must stay electronic (the §IV-D constraint).")
}

// deployUnder builds a fresh architecture with the given policy,
// deploys the Fig. 8 chain and returns its conversion count and
// per-flow conversion energy.
func deployUnder(policy alvc.PlacementPolicy, flowBytes int64) (int, float64) {
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
	return dep.Conversions, dep.EnergyJoules
}
