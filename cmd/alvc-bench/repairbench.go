package main

import (
	"context"
	"fmt"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/topology"
)

// repairBenchReport is the machine-readable result of one repair bench
// run (BENCH_repair.json): recovery latency after a slice-OPS failure
// at increasing chain counts. The reconciliation engine's contract is
// that the latency tracks the damage (one chain), not the fleet size,
// so repair_ms should be roughly flat across sizes.
type repairBenchReport struct {
	Name  string         `json:"name"`
	Sizes []repairSample `json:"sizes"`
}

// repairSample is one fleet size's measurement.
type repairSample struct {
	Chains   int `json:"chains"`
	Affected int `json:"affected"`
	// RepairMs is the wall time of the FailNode call that
	// reconciled the OPS failure.
	RepairMs float64 `json:"repair_ms"`
	// ProvisionMs is the wall time of provisioning the whole fleet
	// (context for the repair number).
	ProvisionMs float64 `json:"provision_ms"`
	// Actions counts the reconciler's verdicts (patched / repathed /
	// replaced / rebuilt / failed / skipped).
	Actions map[string]int `json:"actions"`
	// UntouchedRepaired counts chains outside the failed node's
	// footprint that nevertheless gained a repair — must be 0.
	UntouchedRepaired int `json:"untouched_repaired"`
	FailedRepairs     int `json:"failed_repairs"`
}

// repairTopology returns a topology wide enough for `chains` disjoint
// ALs: every ToR sees every OPS, so each AL collapses to roughly one
// OPS, and PM capacity never bottlenecks VNF hosting.
func repairTopology(chains int) alvc.TopologyConfig {
	cfg := alvc.DefaultTopology()
	cfg.Racks = 4
	cfg.PMsPerRack = 2
	cfg.VMsPerPM = 2
	cfg.OPSCount = chains + 8
	cfg.ToRUplinks = cfg.OPSCount
	cfg.OPSChords = 0
	cfg.Services = []string{"web"}
	cfg.PMCapacity = topology.Resources{CPUCores: 1 << 20, MemoryGB: 1 << 20, StorageGB: 1 << 20}
	return cfg
}

// runRepairBench provisions fleets of increasing size, fails one OPS
// of the first chain's slice in each, and measures how long the
// reconciliation engine takes to repair around it.
func runRepairBench(maxChains int) (*repairBenchReport, error) {
	if maxChains < 2 {
		return nil, fmt.Errorf("repair bench: need at least 2 chains, got %d", maxChains)
	}
	sizes := []int{maxChains / 4, maxChains / 2, maxChains}
	report := &repairBenchReport{Name: "repair"}
	for _, n := range sizes {
		if n < 2 {
			continue
		}
		sample, err := repairAt(n)
		if err != nil {
			return nil, fmt.Errorf("repair bench at %d chains: %w", n, err)
		}
		report.Sizes = append(report.Sizes, *sample)
	}
	return report, nil
}

func repairAt(chains int) (*repairSample, error) {
	ctx := context.Background()
	arch, err := alvc.New(repairTopology(chains))
	if err != nil {
		return nil, err
	}
	specs := make([]alvc.Spec, chains)
	for i := range specs {
		spec, err := alvc.LinearChain(fmt.Sprintf("bench-%d", i), fmt.Sprintf("t-%d", i),
			"web", 1, 1<<20, "firewall", "nat")
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	provStart := time.Now()
	results := arch.DeployBatch(specs)
	provision := time.Since(provStart)
	var victimDep *alvc.Deployment
	for _, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("provision %d: %w", res.Index, res.Err)
		}
		if victimDep == nil {
			victimDep = res.Deployment
		}
	}
	victim := victimDep.Slice.OPSs[0]

	start := time.Now()
	reports, err := arch.FailNode(ctx, victim)
	repair := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("FailNode: %w", err)
	}

	sample := &repairSample{
		Chains:      chains,
		Affected:    len(reports),
		RepairMs:    float64(repair) / float64(time.Millisecond),
		ProvisionMs: float64(provision) / float64(time.Millisecond),
		Actions:     make(map[string]int),
	}
	touched := make(map[alvc.DeploymentID]bool)
	for _, rep := range reports {
		sample.Actions[string(rep.Action)]++
		touched[rep.ID] = true
		if !rep.Succeeded() && rep.Err != nil && string(rep.Action) == "failed" {
			sample.FailedRepairs++
		}
	}
	for _, dep := range arch.Deployments() {
		if !touched[dep.ID] && dep.Repairs > 0 {
			sample.UntouchedRepaired++
		}
	}
	return sample, nil
}

func printRepairReport(r *repairBenchReport) {
	fmt.Println("repair: slice-OPS failure recovery latency vs fleet size")
	for _, s := range r.Sizes {
		fmt.Printf("  %3d chains: repair %8.3f ms  (provision %8.1f ms, %d affected, actions %v",
			s.Chains, s.RepairMs, s.ProvisionMs, s.Affected, s.Actions)
		if s.FailedRepairs > 0 || s.UntouchedRepaired > 0 {
			fmt.Printf(", FAILED %d, untouched-touched %d", s.FailedRepairs, s.UntouchedRepaired)
		}
		fmt.Println(")")
	}
}

// repairViolations returns the number of contract violations in the
// run: failed repairs or untouched chains that got repaired.
func repairViolations(r *repairBenchReport) int {
	n := 0
	for _, s := range r.Sizes {
		n += s.FailedRepairs + s.UntouchedRepaired
	}
	return n
}
