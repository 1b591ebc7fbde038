package main

import (
	"context"
	"fmt"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/topology"
)

// resilienceBenchReport is the machine-readable result of one
// resilience bench run (BENCH_resilience.json): the standby-swap
// contract (zero shortest-path computations at recovery), the
// cold-repath vs standby-swap recovery latency at fleet scale, and the
// rack-event batch semantics.
type resilienceBenchReport struct {
	Name     string          `json:"name"`
	Contract contractSample  `json:"contract"`
	Fleet    fleetComparison `json:"fleet"`
	Rack     rackSample      `json:"rack"`
}

// contractSample is the single-chain contract check: the same transit
// failure recovered by standby swap (protected chain) and by cold
// re-path (identical unprotected chain). The swap must run zero
// shortest-path computations.
type contractSample struct {
	Action               string  `json:"action"`
	PathComputations     int     `json:"path_computations"`
	SwapMs               float64 `json:"swap_ms"`
	ColdMs               float64 `json:"cold_ms"`
	ColdPathComputations int     `json:"cold_path_computations"`
	// Speedup is the cold single-chain recovery latency over the swap
	// latency — the per-chain win of proactive standby paths.
	Speedup float64 `json:"speedup"`
}

// fleetComparison pits a standby-protected fleet (with the background
// optimizer attached) against an identical unprotected one under the
// same ToR failure. The contract is anchored on control-plane churn
// and protection health, not wall time: the protected fleet recovers
// with no inline path searches and no more flow-rule churn per chain
// than the cold fleet, and the protection gap the repair opens closes
// after one optimizer drain.
type fleetComparison struct {
	Chains  int         `json:"chains"`
	Standby fleetSample `json:"standby"`
	Cold    fleetSample `json:"cold"`
	// Speedup is cold recovery latency over standby recovery latency
	// (reported, not gated — wall time is too noisy to contract on).
	Speedup float64 `json:"speedup"`
}

// fleetSample is one fleet's measurement.
type fleetSample struct {
	Affected         int     `json:"affected"`
	RepairMs         float64 `json:"repair_ms"`
	PathComputations int     `json:"path_computations"`
	// StandbySearches counts the standby segment searches asked during
	// recovery — inline replanning; with the optimizer attached the
	// contract is 0 (replanning is deferred).
	StandbySearches int            `json:"standby_searches"`
	Actions         map[string]int `json:"actions"`
	// RulesInstalled is the flow-rule churn of the recovery: rules
	// installed while repairing, normalized per affected chain in
	// RuleChurnPerChain.
	RulesInstalled    int     `json:"rules_installed"`
	RuleChurnPerChain float64 `json:"rule_churn_per_chain"`
	// ProtectionGap counts active chains left without a standby right
	// after the repair; ProtectionGapAfterDrain recounts after the
	// victim recovers and one optimizer drain runs (contract: 0 for the
	// protected fleet).
	ProtectionGap           int `json:"protection_gap"`
	ProtectionGapAfterDrain int `json:"protection_gap_after_drain"`
	FailedRepairs           int `json:"failed_repairs"`
}

// rackSample is the batch (ToR + its PMs) reconciliation measurement.
type rackSample struct {
	Nodes      int            `json:"nodes"`
	Reports    int            `json:"reports"`
	Duplicates int            `json:"duplicates"`
	BatchMs    float64        `json:"batch_ms"`
	Actions    map[string]int `json:"actions"`
}

// resilienceTopology is wide enough for `chains` disjoint ALs with
// every PM dual-homed, so a single ToR failure always leaves alternate
// routes for both the standby planner and the cold re-path.
func resilienceTopology(chains int) alvc.TopologyConfig {
	cfg := alvc.DefaultTopology()
	cfg.Racks = 4
	cfg.PMsPerRack = 2
	cfg.VMsPerPM = 2
	cfg.OPSCount = chains + 8
	cfg.ToRUplinks = cfg.OPSCount
	cfg.OPSChords = 0
	cfg.DualHomeFrac = 1.0
	cfg.Services = []string{"web"}
	cfg.PMCapacity = topology.Resources{CPUCores: 1 << 20, MemoryGB: 1 << 20, StorageGB: 1 << 20}
	return cfg
}

func provisionFleet(arch *alvc.Architecture, chains int) error {
	specs := make([]alvc.Spec, chains)
	for i := range specs {
		spec, err := alvc.LinearChain(fmt.Sprintf("bench-%d", i), fmt.Sprintf("t-%d", i),
			"web", 1, 1<<20, "firewall", "nat")
		if err != nil {
			return err
		}
		specs[i] = spec
	}
	for _, res := range arch.DeployBatch(specs) {
		if res.Err != nil {
			return fmt.Errorf("provision %d: %w", res.Index, res.Err)
		}
	}
	return nil
}

// swapVictim picks a ToR on the chain's primary path that its standby
// avoids — the node whose failure must trigger a pure swap.
func swapVictim(arch *alvc.Architecture, dep *alvc.Deployment) alvc.NodeID {
	if dep.Standby == nil {
		return 0
	}
	onStandby := make(map[alvc.NodeID]bool)
	for _, n := range dep.Standby.Path {
		onStandby[n] = true
	}
	hosts := make(map[alvc.NodeID]bool)
	for _, h := range dep.Placement.Hosts {
		hosts[h] = true
	}
	for _, n := range dep.Path {
		node := arch.Topology().Node(n)
		if node == nil || node.Kind != topology.KindToR {
			continue
		}
		if !onStandby[n] && !hosts[n] && !dep.Slice.Contains(n) {
			return n
		}
	}
	return 0
}

// protectionGap counts active chains currently without a standby —
// the fleet's exposure to a second failure.
func protectionGap(arch *alvc.Architecture) int {
	gap := 0
	for _, dep := range arch.Deployments() {
		if dep.State.String() == "active" && dep.Standby == nil {
			gap++
		}
	}
	return gap
}

func runResilienceBench(chains int) (*resilienceBenchReport, error) {
	ctx := context.Background()
	if chains < 2 {
		return nil, fmt.Errorf("resilience bench: need at least 2 chains, got %d", chains)
	}
	report := &resilienceBenchReport{Name: "resilience"}

	// 1. Contract: one protected chain, one transit ToR failure, zero
	// shortest-path computations during recovery.
	arch, err := alvc.New(resilienceTopology(chains))
	if err != nil {
		return nil, err
	}
	if err := provisionFleet(arch, 1); err != nil {
		return nil, err
	}
	dep := arch.Deployments()[0]
	victim := swapVictim(arch, dep)
	if victim == 0 {
		return nil, fmt.Errorf("resilience bench: no swap victim on chain 1 (standby=%v)", dep.Standby)
	}
	before := arch.Sharded().Shard(0).Controller().PathComputations()
	start := time.Now()
	reports, err := arch.FailNode(ctx, victim)
	elapsed := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("contract FailNode: %w", err)
	}
	report.Contract.PathComputations = arch.Sharded().Shard(0).Controller().PathComputations() - before
	report.Contract.SwapMs = float64(elapsed) / float64(time.Millisecond)
	for _, rep := range reports {
		if rep.ID == dep.ID {
			report.Contract.Action = string(rep.Action)
		}
	}

	// The same failure on an identical but unprotected chain: cold
	// re-path latency is the baseline the swap is measured against.
	coldArch, err := alvc.New(resilienceTopology(chains), alvc.WithoutStandby())
	if err != nil {
		return nil, err
	}
	if err := provisionFleet(coldArch, 1); err != nil {
		return nil, err
	}
	before = coldArch.Sharded().Shard(0).Controller().PathComputations()
	start = time.Now()
	if _, err := coldArch.FailNode(ctx, victim); err != nil {
		return nil, fmt.Errorf("contract cold FailNode: %w", err)
	}
	report.Contract.ColdMs = float64(time.Since(start)) / float64(time.Millisecond)
	report.Contract.ColdPathComputations = coldArch.Sharded().Shard(0).Controller().PathComputations() - before
	if report.Contract.SwapMs > 0 {
		report.Contract.Speedup = report.Contract.ColdMs / report.Contract.SwapMs
	}

	// 2. Fleet: identical topologies and fleets, one protected (with
	// the background optimizer deferring replans) and one not, under
	// the same deterministic ToR failure. Measured on control-plane
	// churn and protection health.
	for _, mode := range []struct {
		name string
		opts []alvc.Option
		out  *fleetSample
	}{
		{"standby", []alvc.Option{alvc.WithOptimizer(alvc.OptimizerOptions{})}, &report.Fleet.Standby},
		{"cold", []alvc.Option{alvc.WithoutStandby()}, &report.Fleet.Cold},
	} {
		arch, err := alvc.New(resilienceTopology(chains), mode.opts...)
		if err != nil {
			return nil, err
		}
		if err := provisionFleet(arch, chains); err != nil {
			return nil, err
		}
		first := arch.Deployments()[0]
		// Deterministic generation: the same victim node exists in both
		// fleets. In cold mode there is no standby to avoid, so fall
		// back to any transit ToR on the primary path.
		victim := swapVictim(arch, first)
		if victim == 0 {
			for _, n := range first.Path {
				if node := arch.Topology().Node(n); node != nil && node.Kind == topology.KindToR {
					victim = n
					break
				}
			}
		}
		if victim == 0 {
			return nil, fmt.Errorf("resilience bench: no ToR victim in %s fleet", mode.name)
		}
		ctrl := arch.Sharded().Shard(0).Controller()
		compsBefore := ctrl.PathComputations()
		searchesBefore := standbySearches(arch)
		_, rulesBefore := ctrl.Stats()
		start := time.Now()
		reports, _ := arch.FailNode(ctx, victim) // per-chain failures are reported below
		elapsed := time.Since(start)
		_, rulesAfter := ctrl.Stats()
		sample := fleetSample{
			Affected:         len(reports),
			RepairMs:         float64(elapsed) / float64(time.Millisecond),
			PathComputations: ctrl.PathComputations() - compsBefore,
			StandbySearches:  standbySearches(arch) - searchesBefore,
			RulesInstalled:   rulesAfter - rulesBefore,
			Actions:          make(map[string]int),
		}
		for _, rep := range reports {
			sample.Actions[string(rep.Action)]++
			if rep.Action == alvc.RepairAction("failed") {
				sample.FailedRepairs++
			}
		}
		if sample.Affected > 0 {
			sample.RuleChurnPerChain = float64(sample.RulesInstalled) / float64(sample.Affected)
		}
		sample.ProtectionGap = protectionGap(arch)
		// Heal the outage and let the optimizer catch up: the gap the
		// repair opened must close.
		if err := arch.RecoverNode(victim); err != nil {
			return nil, fmt.Errorf("resilience bench: recover %s victim: %w", mode.name, err)
		}
		arch.Optimize()
		sample.ProtectionGapAfterDrain = protectionGap(arch)
		*mode.out = sample
	}
	report.Fleet.Chains = chains
	if report.Fleet.Standby.RepairMs > 0 {
		report.Fleet.Speedup = report.Fleet.Cold.RepairMs / report.Fleet.Standby.RepairMs
	}

	// 3. Rack event: ToR plus its PMs as one batch; every affected
	// chain must be visited exactly once.
	arch, err = alvc.New(resilienceTopology(chains))
	if err != nil {
		return nil, err
	}
	if err := provisionFleet(arch, chains); err != nil {
		return nil, err
	}
	topo := arch.Topology()
	var tor alvc.NodeID
	for _, id := range topo.NodeIDs(topology.KindToR) {
		tor = id
		break
	}
	rack := []alvc.NodeID{tor}
	for _, pm := range topo.NodeIDs(topology.KindPhysicalMachine) {
		for _, pt := range topo.ToRsOfPM(pm) {
			if pt == tor {
				rack = append(rack, pm)
				break
			}
		}
	}
	start = time.Now()
	rackReports, _ := arch.FailBatch(ctx, rack, nil) // dead endpoints may legitimately fail chains
	elapsed = time.Since(start)
	report.Rack = rackSample{
		Nodes:   len(rack),
		Reports: len(rackReports),
		BatchMs: float64(elapsed) / float64(time.Millisecond),
		Actions: make(map[string]int),
	}
	seen := make(map[alvc.DeploymentID]bool)
	for _, rep := range rackReports {
		report.Rack.Actions[string(rep.Action)]++
		if seen[rep.ID] {
			report.Rack.Duplicates++
		}
		seen[rep.ID] = true
	}
	return report, nil
}

func printResilienceReport(r *resilienceBenchReport) {
	fmt.Println("resilience: standby-swap vs cold-repath recovery")
	fmt.Printf("  contract: action=%s swap=%.3f ms (%d path computations) vs cold=%.3f ms (%d) -> %.2fx\n",
		r.Contract.Action, r.Contract.SwapMs, r.Contract.PathComputations,
		r.Contract.ColdMs, r.Contract.ColdPathComputations, r.Contract.Speedup)
	for _, s := range []struct {
		name string
		f    fleetSample
	}{{"standby", r.Fleet.Standby}, {"cold", r.Fleet.Cold}} {
		fmt.Printf("  %-7s fleet (%d chains): repair %8.3f ms, %3d affected, %3d path computations, %2d inline replans, %.1f rules/chain, gap %d -> %d after drain, actions %v\n",
			s.name, r.Fleet.Chains, s.f.RepairMs, s.f.Affected, s.f.PathComputations,
			s.f.StandbySearches, s.f.RuleChurnPerChain, s.f.ProtectionGap, s.f.ProtectionGapAfterDrain, s.f.Actions)
	}
	fmt.Printf("  speedup: %.2fx\n", r.Fleet.Speedup)
	fmt.Printf("  rack event: %d nodes -> %d reports (%d duplicates) in %.3f ms, actions %v\n",
		r.Rack.Nodes, r.Rack.Reports, r.Rack.Duplicates, r.Rack.BatchMs, r.Rack.Actions)
}

// resilienceViolations counts contract breaches. The contract is
// anchored on control-plane churn and protection health: a swap that
// computed paths (or was not a swap at all), a protected fleet that
// replanned standbys inline or churned more flow rules per chain than
// the cold fleet, a protection gap that one post-recovery drain did
// not close, or a rack batch visiting a chain twice.
func resilienceViolations(r *resilienceBenchReport) int {
	n := 0
	if r.Contract.Action != "swapped" {
		n++
	}
	if r.Contract.PathComputations != 0 {
		n++
	}
	if r.Rack.Duplicates > 0 {
		n += r.Rack.Duplicates
	}
	if r.Fleet.Standby.Actions["swapped"] == 0 {
		n++
	}
	// Deferred replanning: recovery must ask no standby search inline,
	// and strictly fewer path computations than the cold fleet pays.
	if r.Fleet.Standby.StandbySearches != 0 {
		n++
	}
	if r.Fleet.Standby.PathComputations >= r.Fleet.Cold.PathComputations {
		n++
	}
	// Rule churn: swapping onto precomputed standbys must not install
	// more rules per affected chain than cold repathing.
	if r.Fleet.Standby.RuleChurnPerChain > r.Fleet.Cold.RuleChurnPerChain {
		n++
	}
	// Protection health: the gap the repair opens must close after the
	// outage heals and the optimizer drains.
	if r.Fleet.Standby.ProtectionGapAfterDrain != 0 {
		n++
	}
	if r.Fleet.Standby.FailedRepairs > 0 {
		n++
	}
	return n
}
