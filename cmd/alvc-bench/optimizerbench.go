package main

import (
	"context"
	"fmt"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/topology"
)

// optimizerBenchReport is the machine-readable result of one optimizer
// bench run (BENCH_optimizer.json): inline vs async re-protection
// under the same rack-scale event at several fleet sizes — the async
// engine must ask no standby search on the recovery path and re-
// protect every affected chain when drained — plus the λ-defrag
// before/after fragmentation numbers.
type optimizerBenchReport struct {
	Name   string           `json:"name"`
	Fleets []optFleetSample `json:"fleets"`
	Defrag defragSample     `json:"defrag"`
}

// optFleetSample compares inline (no optimizer: cold repairs replan
// standbys inside the recovery call) against async (the optimizer owns
// re-protection) for one fleet size.
type optFleetSample struct {
	Chains int             `json:"chains"`
	Inline optRecoverStats `json:"inline"`
	Async  optRecoverStats `json:"async"`
	// Speedup is inline recovery wall time over async recovery wall
	// time — the win of moving standby planning off the hot path.
	Speedup float64 `json:"speedup"`
}

// optRecoverStats is one mode's measurement of the same rack event.
type optRecoverStats struct {
	Affected int     `json:"affected"`
	RepairMs float64 `json:"repair_ms"`
	// StandbySearches counts the standby segment searches asked during
	// the recovery call (memo hits included) — the inline
	// standby-replanning work. Zero in async mode.
	StandbySearches  int            `json:"standby_searches"`
	PathComputations int            `json:"path_computations"`
	Actions          map[string]int `json:"actions"`
	// DrainMs / DrainStandbySearches measure the background
	// re-protection pass (async mode only): the same planning, off the
	// recovery path.
	DrainMs              float64 `json:"drain_ms,omitempty"`
	DrainStandbySearches int     `json:"drain_standby_searches,omitempty"`
	DrainedTasks         int     `json:"drained_tasks,omitempty"`
	// Protected / Disjoint count affected still-active chains holding a
	// standby (and a survivable-disjoint one) after recovery — for
	// async mode, after the drain. While the failed ToR stays down the
	// topology typically cannot offer disjoint standbys at all.
	Protected int `json:"protected"`
	Disjoint  int `json:"disjoint"`
	// DisjointAfterRecover (async only) counts affected chains with a
	// disjoint standby after the failed resources recover and the
	// refresh pass drains — the recover-time standby refresh closing
	// the loop.
	DisjointAfterRecover int `json:"disjoint_after_recover,omitempty"`
}

// defragSample measures λ consolidation: a fleet sharing one optical
// corridor, half the chains deleted (freeing low channels), then the
// optimizer's defrag pass retunes the survivors down.
type defragSample struct {
	Chains      int     `json:"chains"`
	Wavelengths int     `json:"wavelengths"`
	Deleted     int     `json:"deleted"`
	BeforeMax   int     `json:"before_max_lambda"`
	AfterMax    int     `json:"after_max_lambda"`
	BeforeSum   int     `json:"before_sum_lambda"`
	AfterSum    int     `json:"after_sum_lambda"`
	Retuned     int     `json:"retuned"`
	DefragMs    float64 `json:"defrag_ms"`
}

// optFleetSizes are the fleet scales the recovery comparison runs at.
var optFleetSizes = []int{12, 25, 50}

// rackEventFor assembles the bench's rack-scale incident: the fleet's
// shared primary transit ToR plus, per chain, the first OPS-adjacent
// standby link — a "ToR plus cable bundle" event that kills primaries
// AND standbys, so every affected chain needs a cold re-path and fresh
// protection (a pure swap would hide the inline planning cost this
// bench quantifies).
func rackEventFor(arch *alvc.Architecture) (nodes []alvc.NodeID, links []alvc.LinkID, err error) {
	deps := arch.Deployments()
	if len(deps) == 0 {
		return nil, nil, fmt.Errorf("no deployments")
	}
	topo := arch.Topology()
	var tor alvc.NodeID
	for _, n := range deps[0].Path {
		if node := topo.Node(n); node != nil && node.Kind == topology.KindToR {
			tor = n
			break
		}
	}
	if tor == 0 {
		return nil, nil, fmt.Errorf("no transit ToR on chain %d's primary", deps[0].ID)
	}
	seen := make(map[alvc.LinkID]bool)
	for _, dep := range deps {
		if dep.Standby == nil {
			continue
		}
		for _, l := range dep.Standby.Links {
			link := topo.Link(l)
			if link == nil || seen[l] {
				continue
			}
			a, b := topo.Node(link.From), topo.Node(link.To)
			// Only optical-side links: killing a PM↔ToR link could
			// strand endpoint VMs and turn the scenario into endpoint
			// loss instead of transit loss.
			if (a != nil && a.Kind == topology.KindOPS) || (b != nil && b.Kind == topology.KindOPS) {
				seen[l] = true
				links = append(links, l)
				break // one standby link per chain is enough
			}
		}
	}
	return []alvc.NodeID{tor}, links, nil
}

// standbySearches is the number of standby segment searches asked of
// the fleet's controller so far, answered from its memo or not.
func standbySearches(arch *alvc.Architecture) int {
	hits, misses := arch.Sharded().Shard(0).Controller().AlternativesCacheStats()
	return int(hits + misses)
}

func measureRecovery(arch *alvc.Architecture, nodes []alvc.NodeID, links []alvc.LinkID) (optRecoverStats, []alvc.DeploymentID, error) {
	ctx := context.Background()
	ctrl := arch.Sharded().Shard(0).Controller()
	searchesBefore := standbySearches(arch)
	compBefore := ctrl.PathComputations()
	start := time.Now()
	reports, _ := arch.FailBatch(ctx, nodes, links) // per-chain outcomes inspected below
	elapsed := time.Since(start)
	stats := optRecoverStats{
		Affected:         len(reports),
		RepairMs:         float64(elapsed) / float64(time.Millisecond),
		StandbySearches:  standbySearches(arch) - searchesBefore,
		PathComputations: ctrl.PathComputations() - compBefore,
		Actions:          make(map[string]int),
	}
	var affected []alvc.DeploymentID
	for _, rep := range reports {
		stats.Actions[string(rep.Action)]++
		affected = append(affected, rep.ID)
	}
	return stats, affected, nil
}

// countProtection fills Protected/Disjoint for the affected chains.
func countProtection(arch *alvc.Architecture, affected []alvc.DeploymentID, stats *optRecoverStats) {
	for _, id := range affected {
		dep := arch.Deployment(id)
		if dep == nil || dep.State.String() != "active" {
			continue
		}
		if dep.Standby != nil {
			stats.Protected++
			if dep.Standby.Disjoint {
				stats.Disjoint++
			}
		}
	}
}

func runOptimizerFleet(chains int) (optFleetSample, error) {
	sample := optFleetSample{Chains: chains}

	// Inline baseline: no optimizer — cold repairs replan standbys
	// inside the recovery call (PR 3 behavior).
	inline, err := alvc.New(resilienceTopology(chains))
	if err != nil {
		return sample, err
	}
	if err := provisionFleet(inline, chains); err != nil {
		return sample, fmt.Errorf("inline fleet: %w", err)
	}
	nodes, links, err := rackEventFor(inline)
	if err != nil {
		return sample, err
	}
	stats, affected, err := measureRecovery(inline, nodes, links)
	if err != nil {
		return sample, err
	}
	countProtection(inline, affected, &stats)
	sample.Inline = stats

	// Async: the optimizer owns re-protection; the recovery call asks no
	// standby search and the drain re-protects afterwards.
	async, err := alvc.New(resilienceTopology(chains), alvc.WithOptimizer(alvc.OptimizerOptions{}))
	if err != nil {
		return sample, err
	}
	if err := provisionFleet(async, chains); err != nil {
		return sample, fmt.Errorf("async fleet: %w", err)
	}
	// Deterministic generation: the same victim set exists in both
	// fleets, but recompute against this fleet's standbys.
	nodes, links, err = rackEventFor(async)
	if err != nil {
		return sample, err
	}
	stats, affected, err = measureRecovery(async, nodes, links)
	if err != nil {
		return sample, err
	}
	searchesBefore := standbySearches(async)
	start := time.Now()
	results := async.Optimize()
	stats.DrainMs = float64(time.Since(start)) / float64(time.Millisecond)
	stats.DrainStandbySearches = standbySearches(async) - searchesBefore
	stats.DrainedTasks = len(results)
	countProtection(async, affected, &stats)

	// Close the loop: recover everything and drain the refresh tasks
	// the recovery events enqueued — standbys planned around the outage
	// become disjoint again.
	for _, n := range nodes {
		if err := async.RecoverNode(n); err != nil {
			return sample, err
		}
	}
	for _, l := range links {
		if err := async.RecoverLink(l); err != nil {
			return sample, err
		}
	}
	async.Optimize()
	for _, id := range affected {
		dep := async.Deployment(id)
		if dep != nil && dep.State.String() == "active" && dep.Standby != nil && dep.Standby.Disjoint {
			stats.DisjointAfterRecover++
		}
	}
	sample.Async = stats

	if sample.Async.RepairMs > 0 {
		sample.Speedup = sample.Inline.RepairMs / sample.Async.RepairMs
	}
	return sample, nil
}

// defragTopology builds a two-rack corridor where every chain's path
// funnels through one shared optical segment X—Y, so wavelength
// assignments genuinely contend and fragmentation is measurable:
//
//	pm1 — T0 — O_i … X — Y … B_i — T1 — pm2   (i = 1..chains)
//
// Each chain's AL is one {O_i, B_j} pair (disjoint across chains); the
// slice is not connected inside the optical mesh without X and Y, so
// every provisioned path transits the shared corridor.
func defragTopology(chains int) (*alvc.Topology, error) {
	topo := topology.New()
	big := topology.Resources{CPUCores: 1 << 16, MemoryGB: 1 << 16, StorageGB: 1 << 16}
	pm1 := topo.AddPM(0, big)
	pm2 := topo.AddPM(1, big)
	if _, err := topo.AddVM(pm1, "web"); err != nil {
		return nil, err
	}
	if _, err := topo.AddVM(pm2, "web"); err != nil {
		return nil, err
	}
	t0 := topo.AddToR(0)
	t1 := topo.AddToR(1)
	x := topo.AddOPS(false, topology.Resources{})
	y := topo.AddOPS(false, topology.Resources{})
	link := func(a, b alvc.NodeID, kind topology.LinkKind) error {
		_, err := topo.AddLink(a, b, kind, 100, 1)
		return err
	}
	if err := link(pm1, t0, topology.LinkElectronic); err != nil {
		return nil, err
	}
	if err := link(pm2, t1, topology.LinkElectronic); err != nil {
		return nil, err
	}
	if err := link(x, y, topology.LinkOptical); err != nil {
		return nil, err
	}
	for i := 0; i < chains; i++ {
		o := topo.AddOPS(false, topology.Resources{})
		b := topo.AddOPS(false, topology.Resources{})
		if err := link(t0, o, topology.LinkBoundary); err != nil {
			return nil, err
		}
		if err := link(o, x, topology.LinkOptical); err != nil {
			return nil, err
		}
		if err := link(y, b, topology.LinkOptical); err != nil {
			return nil, err
		}
		if err := link(b, t1, topology.LinkBoundary); err != nil {
			return nil, err
		}
	}
	return topo, nil
}

func runDefragSample(chains int) (defragSample, error) {
	ctx := context.Background()
	sample := defragSample{Chains: chains, Wavelengths: chains}
	topo, err := defragTopology(chains)
	if err != nil {
		return sample, err
	}
	arch, err := alvc.FromTopology(topo,
		alvc.WithWavelengths(chains),
		alvc.WithoutStandby(),
		alvc.WithOptimizer(alvc.OptimizerOptions{}))
	if err != nil {
		return sample, err
	}
	// Sequential provisioning: flow i lands on λ i of the shared
	// corridor, deterministically.
	for i := 0; i < chains; i++ {
		spec, err := alvc.LinearChain(fmt.Sprintf("defrag-%d", i), fmt.Sprintf("t-%d", i),
			"web", 0.1, 1<<20, "firewall")
		if err != nil {
			return sample, err
		}
		if _, err := arch.Deploy(ctx, spec); err != nil {
			return sample, fmt.Errorf("provision %d: %w", i, err)
		}
	}
	// Delete the chains holding the even channels: survivors sit on the
	// odd ones — maximal fragmentation for the survivor count.
	for _, dep := range arch.Deployments() {
		if dep.Lambda%2 == 0 {
			if _, err := arch.Delete(ctx, dep.ID); err != nil {
				return sample, fmt.Errorf("delete %d: %w", dep.ID, err)
			}
			sample.Deleted++
		}
	}
	wdm := arch.Sharded().Shard(0).WDM()
	sample.BeforeMax, sample.BeforeSum = lambdaFragmentation(wdm.LambdaHistogram())

	eng := arch.Optimizer()
	eng.Tick() // idle tick: queues the quiet-period defrag pass
	start := time.Now()
	results := eng.Drain()
	sample.DefragMs = float64(time.Since(start)) / float64(time.Millisecond)
	for _, res := range results {
		if res.Outcome == "retuned" {
			sample.Retuned++
		}
	}
	sample.AfterMax, sample.AfterSum = lambdaFragmentation(wdm.LambdaHistogram())
	return sample, nil
}

// lambdaFragmentation reduces a λ histogram to (highest channel in
// use, sum of channel indices) — both shrink as assignments compact.
func lambdaFragmentation(hist map[int]int) (max, sum int) {
	max = -1
	for lambda, n := range hist {
		if lambda > max {
			max = lambda
		}
		sum += lambda * n
	}
	return max, sum
}

func runOptimizerBench(defragChains int) (*optimizerBenchReport, error) {
	report := &optimizerBenchReport{Name: "optimizer"}
	for _, chains := range optFleetSizes {
		sample, err := runOptimizerFleet(chains)
		if err != nil {
			return nil, fmt.Errorf("optimizer bench (%d chains): %w", chains, err)
		}
		report.Fleets = append(report.Fleets, sample)
	}
	if defragChains < 4 {
		defragChains = 16
	}
	defrag, err := runDefragSample(defragChains)
	if err != nil {
		return nil, fmt.Errorf("optimizer bench defrag: %w", err)
	}
	report.Defrag = defrag
	return report, nil
}

func printOptimizerReport(r *optimizerBenchReport) {
	fmt.Println("optimizer: inline vs async re-protection under one rack event")
	for _, f := range r.Fleets {
		fmt.Printf("  %2d chains: inline %8.3f ms (%3d standby searches, %3d affected, %v)\n",
			f.Chains, f.Inline.RepairMs, f.Inline.StandbySearches, f.Inline.Affected, f.Inline.Actions)
		fmt.Printf("             async  %8.3f ms (%3d standby searches, %3d affected, %v) + drain %8.3f ms (%d standby searches, %d tasks) -> %d/%d protected (%d disjoint; %d disjoint after recovery), %.2fx\n",
			f.Async.RepairMs, f.Async.StandbySearches, f.Async.Affected, f.Async.Actions,
			f.Async.DrainMs, f.Async.DrainStandbySearches, f.Async.DrainedTasks,
			f.Async.Protected, f.Async.Affected, f.Async.Disjoint,
			f.Async.DisjointAfterRecover, f.Speedup)
	}
	d := r.Defrag
	fmt.Printf("  defrag: %d chains / %d λ, %d deleted: max λ %d -> %d, Σλ %d -> %d (%d retuned in %.3f ms)\n",
		d.Chains, d.Wavelengths, d.Deleted, d.BeforeMax, d.AfterMax, d.BeforeSum, d.AfterSum, d.Retuned, d.DefragMs)
}

// optimizerViolations counts contract breaches: any standby search on
// the async recovery path, an inline scenario that planned no standby
// at all (the comparison would be vacuous), affected chains left unprotected
// after the drain, an async recovery call that computes as many paths
// as the inline one, or a defrag pass that failed to compact.
func optimizerViolations(r *optimizerBenchReport) int {
	n := 0
	for _, f := range r.Fleets {
		if f.Async.StandbySearches != 0 {
			n++
		}
		if f.Inline.StandbySearches == 0 {
			n++
		}
		// Chains whose repair failed or was skipped are no longer active
		// and owe no protection; every other affected chain must hold a
		// standby after the drain.
		exempt := f.Async.Actions["failed"] + f.Async.Actions["skipped"]
		if f.Async.Protected < f.Async.Affected-exempt {
			n++
		}
		// Once the outage heals, the refresh pass must restore disjoint
		// protection (the pre-failure state) for every surviving chain.
		if f.Async.DisjointAfterRecover < f.Async.Affected-exempt {
			n++
		}
		// The async recovery call must do strictly less routing work than
		// the inline one: the searches its standbys would have cost. (The
		// wall-clock speedup is reported, not gated: with a standby plan
		// at tens of microseconds both calls take a few milliseconds and
		// one scheduler blip decides their ratio.)
		if f.Async.PathComputations >= f.Inline.PathComputations {
			n++
		}
	}
	if r.Defrag.Retuned == 0 || r.Defrag.AfterMax >= r.Defrag.BeforeMax {
		n++
	}
	return n
}
