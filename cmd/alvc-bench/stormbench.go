package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/topology"
)

// stormBenchReport is the machine-readable result of one failure-storm
// bench run (BENCH_storm.json). The storm is a conduit cut: every
// victim chain loses one primary transit link and one standby transit
// link, the links grouped into SRLG trays. The per-event baseline
// handles each dead link as its own failure event — each chain swaps
// onto its standby, then cold-repaths when the standby link dies too.
// The batched run feeds the same links through the failure debouncer
// and dispatches them as one union batch, so every chain is classified
// against the whole storm and repaired exactly once.
//
// Contract: zero routing-graph rebuilds during either storm (liveness
// is an overlay patch, not an invalidation), the batched recovery at
// least 2x faster than per-event, every victim chain repaired exactly
// once in the batch with no failures, and the optimizer's storm mode
// engaging and coalescing the re-protection backlog by failure domain.
type stormBenchReport struct {
	Name    string `json:"name"`
	Chains  int    `json:"chains"`
	Victims int    `json:"victims"`
	Links   int    `json:"links"`
	Trays   int    `json:"trays"`

	Baseline stormSample `json:"baseline"`
	Batched  stormSample `json:"batched"`
	// Speedup is baseline recovery wall time over batched, from the
	// median round; RoundSpeedups lists every round's ratio.
	Speedup       float64   `json:"speedup"`
	RoundSpeedups []float64 `json:"round_speedups"`

	// Debounce is the batched run's coalescing counters: one Report per
	// dead link, one dispatched batch.
	Debounce alvc.DebounceStats `json:"debounce"`
	// Storm is the batched run's optimizer storm-mode counters after
	// the re-protection backlog drained.
	Storm alvc.StormStats `json:"storm"`
	// StormGroupTasks counts coalesced group tasks executed during the
	// drain; DrainedTasks is the whole backlog.
	StormGroupTasks int `json:"storm_group_tasks"`
	DrainedTasks    int `json:"drained_tasks"`

	// Drain-phase planning economics of the batched fleet, which
	// group-plans per failure domain. GroupPlanned chains went through a
	// group planner, GroupFallbacks of them were planned a second time on
	// the whole fabric; StandbySearches segment questions were asked of
	// the shard controllers and StandbySearchMisses of them ran a search
	// (the rest were memo hits). Contract: no Yen k-shortest run at all
	// (DrainYenRuns 0), and at most one search per segment per plan.
	DrainYenRuns        int   `json:"yen_runs"`
	GroupPlanned        int   `json:"group_planned"`
	GroupFallbacks      int   `json:"group_fallbacks"`
	StandbySearches     int64 `json:"standby_searches"`
	StandbySearchMisses int64 `json:"standby_search_misses"`
	// UnprotectedChains counts batched-fleet chains left without a
	// standby after the drain. Contract: 0 — group planning must match
	// per-chain protection coverage.
	UnprotectedChains int `json:"unprotected_chains"`

	// QueueBound is the per-shard queue-depth cap the batched fleet ran
	// with; QueueHighWater the worst per-shard depth observed and
	// QueueShed the tasks dropped to hold the bound. Contract:
	// high-water never exceeds the bound.
	QueueBound     int `json:"queue_bound"`
	QueueHighWater int `json:"queue_high_water"`
	QueueShed      int `json:"queue_shed"`

	Violations []string `json:"violations"`
}

// stormSample is one recovery strategy's measurement over the same
// storm.
type stormSample struct {
	// Events is the number of HandleFailures dispatches the storm cost.
	Events int `json:"events"`
	// Repairs is the total repair reports across those dispatches; for
	// the per-event baseline each chain appears twice (swap, then
	// repath), for the batch exactly once.
	Repairs       int            `json:"repairs"`
	Actions       map[string]int `json:"actions"`
	FailedRepairs int            `json:"failed_repairs"`
	// DuplicateRepairs counts chains repaired more than once across the
	// whole storm.
	DuplicateRepairs int `json:"duplicate_repairs"`
	// VictimsRepaired counts victim chains that got at least one repair
	// (the batch may legitimately also touch standby-only bystanders).
	VictimsRepaired int     `json:"victims_repaired"`
	RecoveryMs      float64 `json:"recovery_ms"`
	// GraphBuilds counts routing-graph rebuilds during the storm.
	// Contract: 0 — failures patch the liveness overlay in place.
	GraphBuilds uint64 `json:"graph_builds"`
}

// stormVictim is one chain's pair of doomed links: a primary transit
// link and a standby transit link chosen from opposite path ends, so
// the union always leaves a survivable route (standby's entry + the
// primary's exit).
type stormVictim struct {
	dep     alvc.DeploymentID
	primary topology.LinkID
	standby topology.LinkID
}

// stormTraySize groups this many chains' links per SRLG tray.
const stormTraySize = 8

// stormSegmentCeiling bounds how many searches one standby plan can
// cost: one per standby path segment, and the bench chains (VM -> PM ->
// two NF hosts -> PM -> VM) never exceed five segments.
const stormSegmentCeiling = 5

// stormQueueBound caps each optimizer shard queue during the storm:
// small enough that the bound is actually exercised by a 160-chain
// storm's re-protection backlog, large enough that storm-group tasks
// (exempt from shedding) never need the headroom.
const stormQueueBound = 64

// stormTopology reuses the resilience topology: fully dual-homed PMs
// and one exclusive slice OPS per chain, so swap, repath and replan all
// stay feasible throughout the storm.
func stormTopology(chains int) alvc.TopologyConfig {
	return resilienceTopology(chains)
}

func newStormArch(chains int, batched bool) (*alvc.Architecture, error) {
	opts := []alvc.Option{alvc.WithShards(4)}
	if batched {
		// An hour-long window: the bench flushes explicitly, standing in
		// for the deployment-tuned debounce interval.
		opts = append(opts,
			alvc.WithOptimizer(alvc.OptimizerOptions{StormThreshold: 8, MaxQueueDepth: stormQueueBound}),
			alvc.WithFailureDebounce(time.Hour))
	} else {
		// The baseline handles the storm per event, storm grouping off.
		opts = append(opts,
			alvc.WithOptimizer(alvc.OptimizerOptions{StormThreshold: -1, MaxQueueDepth: stormQueueBound}))
	}
	arch, err := alvc.New(stormTopology(chains), opts...)
	if err != nil {
		return nil, err
	}
	return arch, provisionFleet(arch, chains)
}

// transitLinks returns the links along a path whose endpoints are both
// transit nodes (ToR or OPS) — the links a conduit cut can take out
// without killing a chain endpoint.
func transitLinks(topo *topology.Topology, path []alvc.NodeID) []topology.LinkID {
	var out []topology.LinkID
	for i := 0; i+1 < len(path); i++ {
		a, b := topo.Node(path[i]), topo.Node(path[i+1])
		if a == nil || b == nil {
			continue
		}
		if (a.Kind != topology.KindToR && a.Kind != topology.KindOPS) ||
			(b.Kind != topology.KindToR && b.Kind != topology.KindOPS) {
			continue
		}
		if l := topo.LinkBetween(path[i], path[i+1]); l != nil {
			out = append(out, l.ID)
		}
	}
	return out
}

// pickStormVictims selects the chains the storm will hit: protected
// chains whose primary entry link, primary exit link, standby entry
// link and standby exit link are four distinct links. The storm takes
// the primary's entry and the standby's exit, so the standby's entry
// plus the primary's exit always survive as a repath route. Chain 0 is
// reserved as the warm-up sacrifice. Links shared between chains are
// skipped to keep the exactly-once accounting unambiguous.
func pickStormVictims(arch *alvc.Architecture) []stormVictim {
	topo := arch.Topology()
	claimed := make(map[topology.LinkID]bool)
	var victims []stormVictim
	for i, dep := range arch.Deployments() {
		if i == 0 || dep.Standby == nil || !dep.Standby.Disjoint {
			continue
		}
		prim := transitLinks(topo, dep.Path)
		stby := transitLinks(topo, dep.Standby.Path)
		if len(prim) < 2 || len(stby) < 2 {
			continue
		}
		pEntry, pExit := prim[0], prim[len(prim)-1]
		sEntry, sExit := stby[0], stby[len(stby)-1]
		distinct := map[topology.LinkID]bool{pEntry: true, pExit: true, sEntry: true, sExit: true}
		if len(distinct) != 4 || claimed[pEntry] || claimed[sExit] {
			continue
		}
		claimed[pEntry] = true
		claimed[sExit] = true
		victims = append(victims, stormVictim{dep: dep.ID, primary: pEntry, standby: sExit})
	}
	return victims
}

// assignTrays groups the victims' links into SRLG trays — primary
// links and standby links ride separate conduits, stormTraySize chains
// per tray — and returns the tray count. A structural mutation, so it
// runs before the warm-up that pays the rebuild.
func assignTrays(arch *alvc.Architecture, victims []stormVictim) (int, error) {
	topo := arch.Topology()
	trays := 0
	for i, v := range victims {
		tray := i / stormTraySize
		if tray+1 > trays {
			trays = tray + 1
		}
		if err := topo.SetLinkSRLG(v.primary, 2000+tray); err != nil {
			return 0, fmt.Errorf("SetLinkSRLG(primary %d): %w", v.primary, err)
		}
		if err := topo.SetLinkSRLG(v.standby, 3000+tray); err != nil {
			return 0, fmt.Errorf("SetLinkSRLG(standby %d): %w", v.standby, err)
		}
	}
	return 2 * trays, nil
}

// warmStorm pays the post-SRLG snapshot rebuild and drains any repair
// backlog so the measured phases start from a warm, quiet engine: fail
// and recover one transit link of the sacrificial chain 0, then drain
// the optimizer.
func warmStorm(arch *alvc.Architecture) error {
	ctx := context.Background()
	dep := arch.Deployments()[0]
	links := transitLinks(arch.Topology(), dep.Path)
	if len(links) == 0 {
		return fmt.Errorf("storm bench: sacrificial chain has no transit links")
	}
	if _, err := arch.FailLink(ctx, links[0]); err != nil {
		return fmt.Errorf("warm-up FailLink: %w", err)
	}
	if err := arch.RecoverLink(links[0]); err != nil {
		return fmt.Errorf("warm-up RecoverLink: %w", err)
	}
	arch.Optimize()
	return nil
}

// foldStormReports accumulates repair reports into the sample.
func foldStormReports(s *stormSample, seen map[alvc.DeploymentID]int, reports []alvc.RepairReport) {
	for _, rep := range reports {
		s.Repairs++
		s.Actions[string(rep.Action)]++
		if rep.Action == alvc.RepairAction("failed") {
			s.FailedRepairs++
		}
		seen[rep.ID]++
		if seen[rep.ID] == 2 {
			s.DuplicateRepairs++
		}
	}
}

// countVictimsRepaired fills in how many victim chains got at least
// one repair during the storm.
func countVictimsRepaired(s *stormSample, seen map[alvc.DeploymentID]int, victims []stormVictim) {
	for _, v := range victims {
		if seen[v.dep] > 0 {
			s.VictimsRepaired++
		}
	}
}

// runStormBaseline handles every dead link as its own failure event:
// primary links first (each chain swaps onto its standby), then the
// standby links (each chain cold-repaths off its now-dead standby).
func runStormBaseline(arch *alvc.Architecture, victims []stormVictim) (stormSample, error) {
	ctx := context.Background()
	sample := stormSample{Actions: make(map[string]int)}
	seen := make(map[alvc.DeploymentID]int)
	buildsBefore := arch.Topology().GraphBuilds()
	start := time.Now()
	for _, v := range victims {
		reports, _ := arch.FailLink(ctx, v.primary) // per-chain outcomes folded below
		sample.Events++
		foldStormReports(&sample, seen, reports)
	}
	for _, v := range victims {
		reports, _ := arch.FailLink(ctx, v.standby)
		sample.Events++
		foldStormReports(&sample, seen, reports)
	}
	sample.RecoveryMs = float64(time.Since(start)) / float64(time.Millisecond)
	sample.GraphBuilds = arch.Topology().GraphBuilds() - buildsBefore
	countVictimsRepaired(&sample, seen, victims)
	return sample, nil
}

// runStormBatched reports every dead link to the debouncer as its own
// notification and flushes once: one union batch, one repair per chain.
func runStormBatched(arch *alvc.Architecture, victims []stormVictim) (stormSample, error) {
	ctx := context.Background()
	sample := stormSample{Actions: make(map[string]int)}
	seen := make(map[alvc.DeploymentID]int)
	buildsBefore := arch.Topology().GraphBuilds()
	start := time.Now()
	for _, v := range victims {
		arch.ReportFailures(ctx, nil, []alvc.LinkID{v.primary})
		arch.ReportFailures(ctx, nil, []alvc.LinkID{v.standby})
	}
	reports, _ := arch.FlushFailures() // per-chain outcomes folded below
	sample.Events = 1
	foldStormReports(&sample, seen, reports)
	sample.RecoveryMs = float64(time.Since(start)) / float64(time.Millisecond)
	sample.GraphBuilds = arch.Topology().GraphBuilds() - buildsBefore
	countVictimsRepaired(&sample, seen, victims)
	return sample, nil
}

// stormRounds repeats the whole measurement on fresh fleets and
// reports the median-speedup round, so one scheduler blip on a noisy
// CI runner cannot fail the 2x gate.
const stormRounds = 3

func runStormBench(chains int) (*stormBenchReport, error) {
	if chains < 24 {
		return nil, fmt.Errorf("storm bench: need at least 24 chains, got %d", chains)
	}
	rounds := make([]*stormBenchReport, 0, stormRounds)
	for i := 0; i < stormRounds; i++ {
		r, err := stormRound(chains)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].Speedup < rounds[j].Speedup })
	report := rounds[stormRounds/2]
	for _, r := range rounds {
		report.RoundSpeedups = append(report.RoundSpeedups, r.Speedup)
	}
	report.Violations = stormContract(report)
	return report, nil
}

// stormRound builds fresh baseline and batched fleets and measures one
// storm on each.
func stormRound(chains int) (*stormBenchReport, error) {
	report := &stormBenchReport{Name: "storm", Chains: chains}

	var err error
	baseArch, err := newStormArch(chains, false)
	if err != nil {
		return nil, fmt.Errorf("storm bench baseline fleet: %w", err)
	}
	batchArch, err := newStormArch(chains, true)
	if err != nil {
		return nil, fmt.Errorf("storm bench batched fleet: %w", err)
	}

	// Topology generation is deterministic, so both fleets elect the
	// same victims; verify rather than assume.
	baseVictims := pickStormVictims(baseArch)
	batchVictims := pickStormVictims(batchArch)
	if len(baseVictims) != len(batchVictims) {
		return nil, fmt.Errorf("storm bench: victim sets diverge (%d vs %d)",
			len(baseVictims), len(batchVictims))
	}
	if len(baseVictims) < 8 {
		return nil, fmt.Errorf("storm bench: only %d eligible victim chains; raise -chains", len(baseVictims))
	}
	report.Victims = len(baseVictims)
	report.Links = 2 * len(baseVictims)

	if report.Trays, err = assignTrays(baseArch, baseVictims); err != nil {
		return nil, err
	}
	if _, err = assignTrays(batchArch, batchVictims); err != nil {
		return nil, err
	}
	if err := warmStorm(baseArch); err != nil {
		return nil, err
	}
	if err := warmStorm(batchArch); err != nil {
		return nil, err
	}
	// The warm-up failure can itself brush the storm threshold; report
	// the storm phase's delta, not the cumulative counters.
	var stormBefore alvc.StormStats
	var groupBefore alvc.GroupPlanStats
	if st, ok := batchArch.OptimizerStatus(); ok {
		stormBefore = st.Storm
		groupBefore = st.GroupPlans
	}

	if report.Baseline, err = runStormBaseline(baseArch, baseVictims); err != nil {
		return nil, err
	}
	if report.Batched, err = runStormBatched(batchArch, batchVictims); err != nil {
		return nil, err
	}
	if report.Batched.RecoveryMs > 0 {
		report.Speedup = report.Baseline.RecoveryMs / report.Batched.RecoveryMs
	}
	if st, ok := batchArch.FailureDebounceStats(); ok {
		report.Debounce = st
	}

	// Drain the batched fleet's re-protection backlog: the storm-mode
	// group tasks re-protect each chain exactly once per domain.
	drainYenBefore := batchArch.Sharded().YenRuns()
	hitsBefore, missesBefore := batchArch.Sharded().CandidateCacheStats()
	results := batchArch.Optimize()
	report.DrainYenRuns = batchArch.Sharded().YenRuns() - drainYenBefore
	hits, misses := batchArch.Sharded().CandidateCacheStats()
	report.StandbySearchMisses = misses - missesBefore
	report.StandbySearches = hits - hitsBefore + report.StandbySearchMisses
	report.DrainedTasks = len(results)
	for _, res := range results {
		if res.Outcome == "storm-group" {
			report.StormGroupTasks++
		}
	}
	for _, dep := range batchArch.Deployments() {
		if dep.Standby == nil {
			report.UnprotectedChains++
		}
	}
	if st, ok := batchArch.OptimizerStatus(); ok {
		report.Storm = st.Storm
		report.Storm.Activations -= stormBefore.Activations
		report.Storm.Domains -= stormBefore.Domains
		report.Storm.CoalescedTasks -= stormBefore.CoalescedTasks
		report.GroupPlanned = st.GroupPlans.Planned - groupBefore.Planned
		report.GroupFallbacks = st.GroupPlans.Fallbacks - groupBefore.Fallbacks
		report.QueueBound = stormQueueBound
		for _, hw := range st.ShardHighWater {
			if hw > report.QueueHighWater {
				report.QueueHighWater = hw
			}
		}
		report.QueueShed = st.Shed
	}
	return report, nil
}

// stormContract evaluates the failure-storm fast-path contract.
func stormContract(r *stormBenchReport) []string {
	var out []string
	if r.Baseline.GraphBuilds != 0 {
		out = append(out, fmt.Sprintf(
			"baseline storm triggered %d routing-graph rebuilds (contract: 0, liveness is an overlay)",
			r.Baseline.GraphBuilds))
	}
	if r.Batched.GraphBuilds != 0 {
		out = append(out, fmt.Sprintf(
			"batched storm triggered %d routing-graph rebuilds (contract: 0, liveness is an overlay)",
			r.Batched.GraphBuilds))
	}
	if r.Speedup < 2.0 {
		out = append(out, fmt.Sprintf(
			"batched recovery %.2fx per-event baseline (contract: >= 2x)", r.Speedup))
	}
	if r.Batched.VictimsRepaired != r.Victims {
		out = append(out, fmt.Sprintf(
			"batched storm repaired %d of %d victim chains (contract: all of them)",
			r.Batched.VictimsRepaired, r.Victims))
	}
	if r.Batched.DuplicateRepairs != 0 {
		out = append(out, fmt.Sprintf(
			"batched storm repaired %d chains more than once (contract: exactly once)",
			r.Batched.DuplicateRepairs))
	}
	if r.Batched.FailedRepairs != 0 {
		out = append(out, fmt.Sprintf("batched storm left %d failed repairs", r.Batched.FailedRepairs))
	}
	if r.Debounce.Batches != 1 || int(r.Debounce.Events) != r.Links {
		out = append(out, fmt.Sprintf(
			"debouncer dispatched %d batches from %d events (contract: 1 batch from %d per-link reports)",
			r.Debounce.Batches, r.Debounce.Events, r.Links))
	}
	if r.Storm.Activations == 0 || r.Storm.CoalescedTasks == 0 {
		out = append(out, fmt.Sprintf(
			"optimizer storm mode never coalesced (activations=%d coalesced=%d)",
			r.Storm.Activations, r.Storm.CoalescedTasks))
	}
	if r.Storm.Active {
		out = append(out, "optimizer storm mode still active after the backlog drained")
	}
	if r.QueueHighWater > r.QueueBound {
		out = append(out, fmt.Sprintf(
			"optimizer queue high-water %d exceeded the %d bound (contract: shedding holds the cap)",
			r.QueueHighWater, r.QueueBound))
	}
	if r.GroupPlanned == 0 {
		out = append(out, "no chains were group-planned during the drain (contract: storm groups route through the group planner)")
	}
	if r.DrainYenRuns != 0 {
		out = append(out, fmt.Sprintf(
			"batched drain ran Yen's k-shortest %d times (contract: 0, standbys are planned by the avoiding search)",
			r.DrainYenRuns))
	}
	// Every plan asks one question per segment. The few tasks that queued
	// per-deployment before the storm threshold crossed drain alongside
	// the groups, each a plan and at most one fabric retry.
	nonGroup := r.DrainedTasks - r.StormGroupTasks
	if plans := r.GroupPlanned + r.GroupFallbacks + 2*nonGroup; r.StandbySearches > int64(plans*stormSegmentCeiling) {
		out = append(out, fmt.Sprintf(
			"batched drain asked %d standby searches for %d plans (contract: at most %d per plan, one per segment)",
			r.StandbySearches, plans, stormSegmentCeiling))
	}
	if r.UnprotectedChains != 0 {
		out = append(out, fmt.Sprintf(
			"%d chains left unprotected after the group-planned drain (contract: 0)", r.UnprotectedChains))
	}
	return out
}

func printStormReport(r *stormBenchReport) {
	fmt.Printf("storm: %d-chain fleet, %d victim chains, %d dead links in %d SRLG trays\n",
		r.Chains, r.Victims, r.Links, r.Trays)
	for _, s := range []struct {
		name   string
		sample stormSample
	}{{"per-event", r.Baseline}, {"batched", r.Batched}} {
		fmt.Printf("  %-9s %4d events -> %4d repairs (%d dup, %d failed) in %9.3f ms, %d rebuilds, actions %v\n",
			s.name, s.sample.Events, s.sample.Repairs, s.sample.DuplicateRepairs,
			s.sample.FailedRepairs, s.sample.RecoveryMs, s.sample.GraphBuilds, s.sample.Actions)
	}
	fmt.Printf("  speedup: %.2fx (median of %v)\n", r.Speedup, r.RoundSpeedups)
	fmt.Printf("  debounce: %d events -> %d batch(es), %d coalesced\n",
		r.Debounce.Events, r.Debounce.Batches, r.Debounce.Coalesced)
	fmt.Printf("  optimizer: %d tasks drained, %d storm groups, storm %+v\n",
		r.DrainedTasks, r.StormGroupTasks, r.Storm)
	fmt.Printf("  queue: high-water %d of bound %d, %d shed\n",
		r.QueueHighWater, r.QueueBound, r.QueueShed)
	fmt.Printf("  group planning: %d chains (%d fabric fallbacks), %d unprotected\n",
		r.GroupPlanned, r.GroupFallbacks, r.UnprotectedChains)
	fmt.Printf("  drain: %d standby searches asked, %d ran (the rest memo hits), %d Yen runs\n",
		r.StandbySearches, r.StandbySearchMisses, r.DrainYenRuns)
	for _, v := range r.Violations {
		fmt.Printf("  [VIOLATION] %s\n", v)
	}
}

// stormViolations returns the number of contract violations in the run.
func stormViolations(r *stormBenchReport) int { return len(r.Violations) }
