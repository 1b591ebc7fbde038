// Count contracts of the control plane at fleet scale, driven through
// the library's orchestrator, arch.Sharded(): a failure repairs only the chains it damaged, at a cost
// that does not grow with the fleet; a standby swap runs no search; a
// link storm repairs every victim once; a shard set pays at most one
// extra plan per chain. Every count is one GET /metrics serves — the
// ShardStats and OptimizerStatus counters and the topology's graph
// builds — and no test reads a clock. The go benchmarks time the same
// paths: BenchmarkStormRound, BenchmarkProvisionFill and
// BenchmarkShortestPath{Map,Frozen} / BenchmarkKShortest{Map,Frozen}.
package alvc_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/topology"
)

// counts sums the per-shard counters the contracts read.
type counts struct {
	pathComps, yenRuns, standbySearches, ruleInstalls, fallbacks int
}

func countsOf(arch *alvc.Architecture) counts {
	var c counts
	for _, st := range arch.Sharded().ShardStats() {
		c.pathComps += st.PathComputations
		c.yenRuns += st.YenRuns
		c.standbySearches += int(st.CandidateCacheHits + st.CandidateCacheMisses)
		c.ruleInstalls += st.RuleInstalls
		c.fallbacks += int(st.StandbyFallbacks)
	}
	return c
}

func (c counts) minus(d counts) counts {
	return counts{c.pathComps - d.pathComps, c.yenRuns - d.yenRuns, c.standbySearches - d.standbySearches, c.ruleInstalls - d.ruleInstalls, c.fallbacks - d.fallbacks}
}

// wideTopology fits `chains` disjoint ALs: every ToR sees every OPS, so
// each AL collapses to about one exclusive OPS, and PM capacity never
// bounds VNF hosting. dualHomed wires every PM to two ToRs, so a ToR
// failure leaves every chain an alternate route.
func wideTopology(chains int, dualHomed bool) alvc.TopologyConfig {
	cfg := alvc.DefaultTopology()
	cfg.Racks, cfg.PMsPerRack, cfg.VMsPerPM = 4, 2, 2
	cfg.OPSCount = chains + 8
	cfg.ToRUplinks = cfg.OPSCount
	cfg.OPSChords = 0
	if dualHomed {
		cfg.DualHomeFrac = 1
	}
	cfg.Services = []string{"web"}
	cfg.PMCapacity = topology.Resources{CPUCores: 1 << 20, MemoryGB: 1 << 20, StorageGB: 1 << 20}
	return cfg
}

func fleetSpecs(t *testing.T, chains int) []alvc.Spec {
	t.Helper()
	specs := make([]alvc.Spec, chains)
	for i := range specs {
		spec, err := alvc.LinearChain(fmt.Sprintf("c-%d", i), fmt.Sprintf("t-%d", i), "web", 1, 1<<20, "firewall", "nat")
		if err != nil {
			t.Fatalf("LinearChain: %v", err)
		}
		specs[i] = spec
	}
	return specs
}

func deployAll(t *testing.T, arch *alvc.Architecture, specs []alvc.Spec) {
	t.Helper()
	for _, res := range arch.Sharded().ProvisionBatch(specs) {
		if res.Err != nil {
			t.Fatalf("provision %d: %v", res.Index, res.Err)
		}
	}
}

// fleet builds a wideTopology architecture and provisions `chains`
// chains on it. The batch provisions them in spec order, so every count
// the contracts read is the same run to run.
func fleet(t *testing.T, chains int, dualHomed bool, opts ...alvc.Option) *alvc.Architecture {
	t.Helper()
	arch, err := alvc.New(wideTopology(chains, dualHomed), opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	deployAll(t, arch, fleetSpecs(t, chains))
	return arch
}

// TestContractRepairFollowsDamage: a slice-OPS failure reconciles the one
// chain whose slice held it, gives no other chain a repair, and costs
// the same path computations and standby searches whatever the fleet
// size — the reconciler's cost follows the damage, not the fleet.
func TestContractRepairFollowsDamage(t *testing.T) {
	var first counts
	for i, chains := range []int{12, 25, 50, 200} {
		arch := fleet(t, chains, false)
		victim := arch.Sharded().Deployments()[0]
		before := countsOf(arch)
		reports, err := arch.Sharded().HandleFailures(ctx, alvc.NewFailures([]alvc.NodeID{victim.Slice.OPSs[0]}, nil))
		if err != nil {
			t.Fatalf("%d chains: Fail: %v", chains, err)
		}
		if len(reports) != 1 || reports[0].ID != victim.ID || !reports[0].Succeeded() {
			t.Fatalf("%d chains: reports = %+v, want one successful repair of chain %d", chains, reports, victim.ID)
		}
		for _, dep := range arch.Sharded().Deployments() {
			if dep.ID != victim.ID && dep.Repairs != 0 {
				t.Fatalf("%d chains: untouched chain %d gained %d repairs", chains, dep.ID, dep.Repairs)
			}
		}
		got := countsOf(arch).minus(before)
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("%d chains: repair cost %+v, want %+v as at 12 chains", chains, got, first)
		}
	}
}

// TestContractShardingCost provisions and batch-repairs one fleet at 1, 4
// and 16 shards. Provisioning never rebuilds the routing graph and no
// repair fails. Partitioning costs a second whole-fabric standby plan
// on this mostly single-homed fleet — where a shard's pool offers no
// disjoint route it retries the fabric — so per-chain path computations
// and standby searches may reach twice one shard's, and no more: a
// third plan per chain fails here.
func TestContractShardingCost(t *testing.T) {
	const chains = 96
	specs := fleetSpecs(t, chains)
	var perChain1 [2]float64
	for _, shards := range []int{1, 4, 16} {
		cfg := wideTopology(chains, false)
		// 2x OPS headroom: tenant hashing is only statistically uniform,
		// so the heaviest shard needs slack beyond chains/shards.
		cfg.OPSCount = 2 * chains
		cfg.ToRUplinks = cfg.OPSCount
		arch, err := alvc.New(cfg, alvc.WithShards(shards))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		// The first chain pays the cold snapshot build.
		if _, err := arch.Sharded().Provision(ctx, specs[0]); err != nil {
			t.Fatalf("warm-up provision: %v", err)
		}
		builds := arch.Topology().GraphBuilds()
		deployAll(t, arch, specs[1:])
		if got := arch.Topology().GraphBuilds() - builds; got != 0 {
			t.Fatalf("%d shards: %d graph builds while provisioning, want 0", shards, got)
		}
		c := countsOf(arch)
		perChain := [2]float64{float64(c.pathComps) / chains, float64(c.standbySearches) / chains}
		if shards == 1 {
			perChain1 = perChain
		}
		for k, name := range []string{"path computations", "standby searches"} {
			if perChain[k] > 2*perChain1[k] {
				t.Errorf("%d shards: %.2f %s per chain, want at most 2x one shard's %.2f", shards, perChain[k], name, perChain1[k])
			}
		}
		t.Logf("%d shards: %.2f path computations, %.2f standby searches per chain", shards, perChain[0], perChain[1])

		// One slice OPS per 7 chains, in one batch: 7 is coprime with
		// every shard count, so the victims spread over all shards.
		var victims []alvc.NodeID
		for i, dep := range arch.Sharded().Deployments() {
			if i%7 == 0 {
				victims = append(victims, dep.Slice.OPSs[0])
			}
		}
		reports, err := arch.Sharded().HandleFailures(ctx, alvc.NewFailures(victims, nil))
		if err != nil {
			t.Fatalf("%d shards: Fail: %v", shards, err)
		}
		for _, rep := range reports {
			if !rep.Succeeded() {
				t.Fatalf("%d shards: repair of chain %d failed: %+v", shards, rep.ID, rep)
			}
		}
	}
}

// swapVictim returns a ToR on the chain's primary path that its standby,
// slice and hosts avoid — a failure there is a pure swap — or, with no
// standby, the primary's first ToR.
func swapVictim(arch *alvc.Architecture, dep *alvc.Deployment) alvc.NodeID {
	avoid := make(map[alvc.NodeID]bool)
	if dep.Standby != nil {
		for _, n := range dep.Standby.Path {
			avoid[n] = true
		}
	}
	for _, h := range dep.Placement.Hosts {
		avoid[h] = true
	}
	for _, n := range dep.Path {
		if node := arch.Topology().Node(n); node.Kind == topology.KindToR && !avoid[n] && !dep.Slice.Contains(n) {
			return n
		}
	}
	return 0
}

// protectionGap counts active chains without a standby.
func protectionGap(arch *alvc.Architecture) int {
	gap := 0
	for _, st := range arch.Sharded().ShardStats() {
		gap += st.Unprotected
	}
	return gap
}

// TestContractProtectedRecovery fails the same ToR under a protected
// fleet (standbys, background optimizer) and an unprotected one. The
// protected recovery swaps, asks no standby search inline, computes
// strictly fewer paths and churns no more flow rules per chain than the
// cold one; once the ToR recovers, one drain closes the protection gap.
// A swap's zero path computations are TestStandbySwapZeroPathComputations'
// and a rack event's single visit per chain
// TestRackEventSingleBatchReconciliation's (internal/orch).
func TestContractProtectedRecovery(t *testing.T) {
	const chains = 25
	type sample struct {
		counts
		affected, swapped, failed, gapAfterDrain int
		churn                                    float64
	}
	run := func(opts ...alvc.Option) sample {
		arch := fleet(t, chains, true, opts...)
		victim := swapVictim(arch, arch.Sharded().Deployments()[0])
		if victim == 0 {
			t.Fatal("no transit ToR on the first chain's primary")
		}
		before := countsOf(arch)
		reports, _ := arch.Sharded().HandleFailures(ctx, alvc.NewFailures([]alvc.NodeID{victim}, nil)) // failed chains are counted below
		s := sample{counts: countsOf(arch).minus(before), affected: len(reports)}
		for _, rep := range reports {
			switch rep.Action {
			case orch.ActionSwapped:
				s.swapped++
			case orch.ActionFailed:
				s.failed++
			}
		}
		s.churn = float64(s.ruleInstalls) / float64(s.affected)
		if err := arch.Sharded().Recover(alvc.NewFailures([]alvc.NodeID{victim}, nil)); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if eng := arch.Optimizer(); eng != nil { // the cold run has none
			eng.Drain()
		}
		s.gapAfterDrain = protectionGap(arch)
		return s
	}
	standby := run(alvc.WithOptimizer(alvc.OptimizerOptions{}))
	cold := run(alvc.WithoutStandby())
	t.Logf("standby %+v, cold %+v", standby, cold)
	if standby.swapped == 0 {
		t.Error("protected fleet swapped no chain")
	}
	if standby.standbySearches != 0 {
		t.Errorf("protected recovery asked %d standby searches inline, want 0", standby.standbySearches)
	}
	if standby.pathComps >= cold.pathComps {
		t.Errorf("protected recovery computed %d paths, want fewer than the cold fleet's %d", standby.pathComps, cold.pathComps)
	}
	if standby.churn > cold.churn {
		t.Errorf("protected recovery installed %.1f rules per chain, want at most the cold fleet's %.1f", standby.churn, cold.churn)
	}
	if standby.gapAfterDrain != 0 {
		t.Errorf("%d chains unprotected after recovery and a drain, want 0", standby.gapAfterDrain)
	}
	if standby.failed != 0 {
		t.Errorf("protected fleet failed %d repairs", standby.failed)
	}
}

// rackEvent is a ToR plus cable bundle: the first chain's primary
// transit ToR and, per protected chain, one OPS-side standby link — it
// kills primaries and standbys together, so every affected chain needs
// a cold re-path and fresh protection.
func rackEvent(t *testing.T, arch *alvc.Architecture) ([]alvc.NodeID, []alvc.LinkID) {
	t.Helper()
	topo := arch.Topology()
	deps := arch.Sharded().Deployments()
	var tor alvc.NodeID
	for _, n := range deps[0].Path {
		if topo.Node(n).Kind == topology.KindToR {
			tor = n
			break
		}
	}
	var links []alvc.LinkID
	seen := make(map[alvc.LinkID]bool)
	for _, dep := range deps {
		if dep.Standby == nil {
			continue
		}
		for _, l := range dep.Standby.Links {
			link := topo.Link(l)
			if !seen[l] && (topo.Node(link.From).Kind == topology.KindOPS || topo.Node(link.To).Kind == topology.KindOPS) {
				seen[l] = true
				links = append(links, l)
				break
			}
		}
	}
	return []alvc.NodeID{tor}, links
}

// TestContractAsyncReprotection runs one rack event with
// standbys replanned inline and with the background optimizer owning
// re-protection. The async recovery call asks no standby search and
// computes fewer paths; the drain protects every surviving chain, and
// once the event heals the refresh makes every one disjoint again.
func TestContractAsyncReprotection(t *testing.T) {
	for _, chains := range []int{12, 25, 50} {
		inline := fleet(t, chains, true)
		nodes, links := rackEvent(t, inline)
		before := countsOf(inline)
		if _, err := inline.Sharded().HandleFailures(ctx, alvc.NewFailures(nodes, links)); err != nil {
			t.Fatalf("%d chains: inline Fail: %v", chains, err)
		}
		inlineCost := countsOf(inline).minus(before)

		async := fleet(t, chains, true, alvc.WithOptimizer(alvc.OptimizerOptions{}))
		nodes, links = rackEvent(t, async)
		before = countsOf(async)
		reports, _ := async.Sharded().HandleFailures(ctx, alvc.NewFailures(nodes, links)) // failed chains are exempt below
		asyncCost := countsOf(async).minus(before)
		t.Logf("%d chains: inline %+v, async %+v", chains, inlineCost, asyncCost)
		if asyncCost.standbySearches != 0 {
			t.Errorf("%d chains: async recovery asked %d standby searches, want 0", chains, asyncCost.standbySearches)
		}
		if inlineCost.standbySearches == 0 {
			t.Errorf("%d chains: inline recovery planned no standby; the comparison is vacuous", chains)
		}
		if asyncCost.pathComps >= inlineCost.pathComps {
			t.Errorf("%d chains: async recovery computed %d paths, want fewer than inline's %d", chains, asyncCost.pathComps, inlineCost.pathComps)
		}

		// Chains whose repair failed or was skipped are no longer active
		// and owe no protection.
		protected := func(disjoint bool) {
			for _, rep := range reports {
				dep := async.Deployment(rep.ID)
				if dep == nil || dep.State != orch.StateActive {
					continue
				}
				if dep.Standby == nil || (disjoint && !dep.Standby.Disjoint) {
					t.Errorf("%d chains: chain %d standby %+v after the drain (disjoint wanted: %v)", chains, rep.ID, dep.Standby, disjoint)
				}
			}
		}
		async.Optimizer().Drain()
		protected(false)
		for _, n := range nodes {
			if err := async.Sharded().Recover(alvc.NewFailures([]alvc.NodeID{n}, nil)); err != nil {
				t.Fatalf("Recover: %v", err)
			}
		}
		for _, l := range links {
			if err := async.Sharded().Recover(alvc.NewFailures(nil, []alvc.LinkID{l})); err != nil {
				t.Fatalf("Recover: %v", err)
			}
		}
		async.Optimizer().Drain()
		protected(true)
	}
}

// TestContractDefrag: chains share one optical corridor, the
// ones on even channels are deleted, and the optimizer's quiet-period
// defrag retunes survivors down, lowering the highest channel in use.
func TestContractDefrag(t *testing.T) {
	const chains = 16
	// pm1 — T0 — O_i … X — Y … B_i — T1 — pm2 (i = 1..chains): every
	// path transits the shared X—Y corridor.
	topo := topology.New()
	big := topology.Resources{CPUCores: 1 << 16, MemoryGB: 1 << 16, StorageGB: 1 << 16}
	pm1, pm2 := topo.AddPM(0, big), topo.AddPM(1, big)
	t0, t1 := topo.AddToR(0), topo.AddToR(1)
	x, y := topo.AddOPS(false, topology.Resources{}), topo.AddOPS(false, topology.Resources{})
	link := func(a, b alvc.NodeID, kind topology.LinkKind) {
		if _, err := topo.AddLink(a, b, kind, 100, 1); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
	}
	for _, pm := range []alvc.NodeID{pm1, pm2} {
		if _, err := topo.AddVM(pm, "web"); err != nil {
			t.Fatalf("AddVM: %v", err)
		}
	}
	link(pm1, t0, topology.LinkElectronic)
	link(pm2, t1, topology.LinkElectronic)
	link(x, y, topology.LinkOptical)
	for i := 0; i < chains; i++ {
		o, b := topo.AddOPS(false, topology.Resources{}), topo.AddOPS(false, topology.Resources{})
		link(t0, o, topology.LinkBoundary)
		link(o, x, topology.LinkOptical)
		link(y, b, topology.LinkOptical)
		link(b, t1, topology.LinkBoundary)
	}
	arch, err := alvc.FromTopology(topo, alvc.WithWavelengths(chains), alvc.WithoutStandby(),
		alvc.WithOptimizer(alvc.OptimizerOptions{}))
	if err != nil {
		t.Fatalf("FromTopology: %v", err)
	}
	for i := 0; i < chains; i++ { // sequential: chain i lands on λ i
		spec, err := alvc.LinearChain(fmt.Sprintf("d-%d", i), fmt.Sprintf("t-%d", i), "web", 0.1, 1<<20, "firewall")
		if err != nil {
			t.Fatalf("LinearChain: %v", err)
		}
		if _, err := arch.Sharded().Provision(ctx, spec); err != nil {
			t.Fatalf("provision %d: %v", i, err)
		}
	}
	for _, dep := range arch.Sharded().Deployments() {
		if dep.Lambda%2 == 0 {
			if _, err := arch.Sharded().Delete(ctx, dep.ID); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		}
	}
	maxLambda := func() int {
		top := -1
		for _, dep := range arch.Sharded().Deployments() {
			top = max(top, dep.Lambda)
		}
		return top
	}
	before := maxLambda()
	arch.Optimizer().Tick() // idle tick: queues the defrag pass
	retuned := 0
	for _, res := range arch.Optimizer().Drain() {
		if res.Outcome == "retuned" {
			retuned++
		}
	}
	if after := maxLambda(); retuned == 0 || after >= before {
		t.Fatalf("defrag retuned %d chains, max λ %d -> %d; want at least one retune and a lower max", retuned, before, after)
	}
}

// TestContractWarmComputePath: on an unchanged topology a warm path
// query — AppendPathVia into a reused buffer, the call provisioning
// makes — answers from the cached frozen snapshot with no graph build
// and no allocation. Under -race sync.Pool drops scratch at random, so
// only the build count holds there.
func TestContractWarmComputePath(t *testing.T) {
	for _, racks := range []int{8, 16} {
		cfg := alvc.DefaultTopology()
		cfg.Racks, cfg.PMsPerRack, cfg.VMsPerPM = racks, 4, 4
		cfg.OPSCount, cfg.ToRUplinks, cfg.OPSChords = 3*racks, 2*racks, 2
		arch, err := alvc.New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ctrl := arch.Sharded().ControllerOf(1) // the one shard's: it issues ID 1
		tors := arch.Topology().NodeIDs(topology.KindToR)
		src, dst := tors[0], tors[len(tors)-1]
		var buf []alvc.NodeID
		route := func() {
			if buf, err = ctrl.AppendPathVia(buf[:0], src, nil, dst, nil); err != nil {
				t.Fatalf("AppendPathVia: %v", err)
			}
		}
		route() // pays the snapshot build
		builds := arch.Topology().GraphBuilds()
		allocs := testing.AllocsPerRun(100, route)
		if got := arch.Topology().GraphBuilds() - builds; got != 0 {
			t.Fatalf("%d racks: %d graph builds on warm queries, want 0", racks, got)
		}
		if !raceEnabled && allocs > 0 {
			t.Fatalf("%d racks: warm AppendPathVia allocates %.0f times, want 0", racks, allocs)
		}
	}
}

// stormVictim is one chain's pair of doomed transit links, from opposite
// ends of its primary and its standby, so the union always leaves the
// standby's entry plus the primary's exit as a survivable route.
type stormVictim struct {
	dep              alvc.DeploymentID
	primary, standby alvc.LinkID
}

// stormFleet provisions a dual-homed 4-shard fleet, elects the victims —
// protected chains whose four end links are distinct and unclaimed,
// chain 0 spared for the warm-up — groups their links into SRLG trays of
// 8 chains, and pays the post-SRLG snapshot build by failing and
// recovering a link of chain 0 before draining the optimizer.
func stormFleet(t *testing.T, chains int, opts ...alvc.Option) (*alvc.Architecture, []stormVictim) {
	t.Helper()
	arch := fleet(t, chains, true, append(opts, alvc.WithShards(4))...)
	topo := arch.Topology()
	transit := func(path []alvc.NodeID) []alvc.LinkID {
		var out []alvc.LinkID
		for i := 0; i+1 < len(path); i++ {
			a, b := topo.Node(path[i]).Kind, topo.Node(path[i+1]).Kind
			if (a == topology.KindToR || a == topology.KindOPS) && (b == topology.KindToR || b == topology.KindOPS) {
				out = append(out, topo.LinkBetween(path[i], path[i+1]).ID)
			}
		}
		return out
	}
	var victims []stormVictim
	claimed := make(map[alvc.LinkID]bool)
	deps := arch.Sharded().Deployments()
	for _, dep := range deps[1:] {
		if dep.Standby == nil || !dep.Standby.Disjoint {
			continue
		}
		prim, stby := transit(dep.Path), transit(dep.Standby.Path)
		if len(prim) < 2 || len(stby) < 2 {
			continue
		}
		pIn, pOut, sIn, sOut := prim[0], prim[len(prim)-1], stby[0], stby[len(stby)-1]
		distinct := map[alvc.LinkID]bool{pIn: true, pOut: true, sIn: true, sOut: true}
		if len(distinct) != 4 || claimed[pIn] || claimed[sOut] {
			continue
		}
		claimed[pIn], claimed[sOut] = true, true
		victims = append(victims, stormVictim{dep.ID, pIn, sOut})
	}
	for i, v := range victims {
		if topo.SetLinkSRLG(v.primary, 2000+i/8) != nil || topo.SetLinkSRLG(v.standby, 3000+i/8) != nil {
			t.Fatalf("SetLinkSRLG of victim %d", v.dep)
		}
	}
	warm := transit(deps[0].Path)[0]
	if _, err := arch.Sharded().HandleFailures(ctx, alvc.NewFailures(nil, []alvc.LinkID{warm})); err != nil {
		t.Fatalf("warm-up Fail: %v", err)
	}
	if err := arch.Sharded().Recover(alvc.NewFailures(nil, []alvc.LinkID{warm})); err != nil {
		t.Fatalf("warm-up Recover: %v", err)
	}
	arch.Optimizer().Drain()
	return arch, victims
}

// TestContractLinkStorm cuts one primary and one standby
// transit link per victim chain, SRLG-grouped, on two identical fleets.
// Per event, each victim reconciles at least twice (a swap, then a
// re-path off the dead standby); through the debouncer the 2 links per
// victim arrive as one batch and each victim is repaired exactly once.
// Neither storm rebuilds the routing graph. Draining the batched
// fleet's backlog coalesces its re-protects into failure-domain groups,
// holds the queue bound, runs no Yen search, asks at most one standby
// search per segment per plan and leaves no chain unprotected.
func TestContractLinkStorm(t *testing.T) {
	const chains, queueBound, segments = 64, 64, 5
	base, victims := stormFleet(t, chains,
		alvc.WithOptimizer(alvc.OptimizerOptions{MaxQueueDepth: queueBound}))
	batch, batchVictims := stormFleet(t, chains,
		alvc.WithOptimizer(alvc.OptimizerOptions{MaxQueueDepth: queueBound}),
		alvc.WithFailureDebounce(time.Hour)) // flushed explicitly below
	if len(victims) < 8 || len(victims) != len(batchVictims) {
		t.Fatalf("victims = %d and %d, want the same 8 or more on both fleets", len(victims), len(batchVictims))
	}

	repaired := make(map[alvc.DeploymentID]int)
	builds := base.Topology().GraphBuilds()
	for _, pick := range []func(stormVictim) alvc.LinkID{
		func(v stormVictim) alvc.LinkID { return v.primary },
		func(v stormVictim) alvc.LinkID { return v.standby },
	} {
		for _, v := range victims {
			reports, _ := base.Sharded().HandleFailures(ctx, alvc.NewFailures(nil, []alvc.LinkID{pick(v)})) // outcomes are counted below
			for _, rep := range reports {
				repaired[rep.ID]++
			}
		}
	}
	if got := base.Topology().GraphBuilds() - builds; got != 0 {
		t.Errorf("per-event storm: %d graph builds, want 0", got)
	}
	for _, v := range victims {
		if repaired[v.dep] < 2 {
			t.Errorf("per-event storm reconciled chain %d %d times, want a swap and a re-path", v.dep, repaired[v.dep])
		}
	}

	before := batch.Optimizer().Status()
	builds = batch.Topology().GraphBuilds()
	for _, v := range batchVictims {
		batch.Debouncer().Report(ctx, alvc.NewFailures(nil, []alvc.LinkID{v.primary}))
		batch.Debouncer().Report(ctx, alvc.NewFailures(nil, []alvc.LinkID{v.standby}))
	}
	reports, err := batch.FlushFailures()
	if err != nil {
		t.Fatalf("FlushFailures: %v", err)
	}
	if got := batch.Topology().GraphBuilds() - builds; got != 0 {
		t.Errorf("batched storm: %d graph builds, want 0", got)
	}
	clear(repaired)
	for _, rep := range reports {
		if repaired[rep.ID]++; repaired[rep.ID] > 1 || !rep.Succeeded() {
			t.Errorf("batched storm: chain %d repaired %d times, last %+v; want once, successfully", rep.ID, repaired[rep.ID], rep)
		}
	}
	for _, v := range batchVictims {
		if repaired[v.dep] != 1 {
			t.Errorf("batched storm repaired victim %d %d times, want 1", v.dep, repaired[v.dep])
		}
	}
	if st := batch.Debouncer().Stats(); st.Batches != 1 || int(st.Events) != 2*len(batchVictims) {
		t.Errorf("debouncer: %d batches from %d reports, want 1 from %d", st.Batches, st.Events, 2*len(batchVictims))
	}

	drainBefore := countsOf(batch)
	results := batch.Optimizer().Drain()
	drain := countsOf(batch).minus(drainBefore)
	fallbacks := drain.fallbacks
	after := batch.Optimizer().Status()
	t.Logf("drain: %d results, %+v, group plans %+v, fabric retries %d, queue high-water %d", len(results), drain, after.GroupPlans, fallbacks, after.HighWater)
	if after.GroupPlans.Coalesced == before.GroupPlans.Coalesced {
		t.Errorf("no re-protect coalesced into a failure-domain group: %+v -> %+v", before.GroupPlans, after.GroupPlans)
	}
	if after.QueueDepth != 0 {
		t.Errorf("%d tasks still queued after the drain", after.QueueDepth)
	}
	if after.HighWater > queueBound {
		t.Errorf("queue high-water %d, want at most %d", after.HighWater, queueBound)
	}
	planned := after.GroupPlans.Planned - before.GroupPlans.Planned
	if planned == 0 {
		t.Error("no chain group-planned in the drain")
	}
	if drain.yenRuns != 0 {
		t.Errorf("drain ran %d Yen searches, want 0", drain.yenRuns)
	}
	// Every plan is counted once: each group member planned, and every
	// fabric retry.
	plans := planned + fallbacks
	t.Logf("plans %d, standby searches %d", plans, drain.standbySearches)
	if drain.standbySearches > segments*plans {
		t.Errorf("drain asked %d standby searches for %d plans, want at most %d per plan", drain.standbySearches, plans, segments)
	}
	if gap := protectionGap(batch); gap != 0 {
		t.Errorf("%d chains unprotected after the drain, want 0", gap)
	}
}

// trayCut is what one failure_storm round cuts: from each chain of the
// tray, the primary's first transit link and the standby's last, so
// every victim needs a real re-path (benchmark/runner.go's storm).
func trayCut(arch *alvc.Architecture, tray []alvc.DeploymentID) []alvc.LinkID {
	topo := arch.Topology()
	transit := func(path []alvc.NodeID) []alvc.LinkID {
		var out []alvc.LinkID
		for i := 0; i+1 < len(path); i++ {
			a, b := topo.Node(path[i]).Kind, topo.Node(path[i+1]).Kind
			if (a == topology.KindToR || a == topology.KindOPS) && (b == topology.KindToR || b == topology.KindOPS) {
				out = append(out, topo.LinkBetween(path[i], path[i+1]).ID)
			}
		}
		return out
	}
	seen := make(map[alvc.LinkID]bool)
	var links []alvc.LinkID
	for _, id := range tray {
		dep := arch.Deployment(id)
		prim, stby := transit(dep.Path), transit(dep.Standby.Path)
		for _, l := range []alvc.LinkID{prim[0], stby[len(stby)-1]} {
			if !seen[l] {
				seen[l] = true
				links = append(links, l)
			}
		}
	}
	return links
}

// TestContractStormRevisit runs failure_storm's rounds over one tray:
// cut, flush, drain, recover, drain. A repaired chain settles on its
// other route and the next cut moves it back, so the third round cuts
// the links the first did and meets the same fabric states. The standby
// memo is keyed by those states' content, so the third round's drain
// answers every re-protect leg from it: no search, and the same
// standbys the first drain planned.
func TestContractStormRevisit(t *testing.T) {
	arch, _ := stormFleet(t, 64, alvc.WithOptimizer(alvc.OptimizerOptions{}), alvc.WithFailureDebounce(time.Hour))
	var tray []alvc.DeploymentID
	for _, dep := range arch.Sharded().Deployments()[1:9] {
		tray = append(tray, dep.ID)
	}
	type round struct {
		links    []alvc.LinkID
		drain    counts
		standbys [][]alvc.NodeID
	}
	var rounds []round
	for i := 0; i < 3; i++ {
		r := round{links: trayCut(arch, tray)}
		for _, l := range r.links {
			arch.Debouncer().Report(ctx, alvc.NewFailures(nil, []alvc.LinkID{l}))
		}
		if _, err := arch.FlushFailures(); err != nil {
			t.Fatalf("round %d: flush: %v", i, err)
		}
		before := countsOf(arch)
		arch.Optimizer().Drain()
		r.drain = countsOf(arch).minus(before)
		for _, id := range tray {
			dep := arch.Deployment(id)
			if dep.Standby == nil {
				t.Fatalf("round %d: chain %d unprotected after the drain", i, id)
			}
			r.standbys = append(r.standbys, dep.Standby.Path)
		}
		for _, l := range r.links {
			if err := arch.Sharded().Recover(alvc.NewFailures(nil, []alvc.LinkID{l})); err != nil {
				t.Fatalf("Recover: %v", err)
			}
		}
		arch.Optimizer().Drain()
		rounds = append(rounds, r)
		t.Logf("round %d: %d links cut, drain %+v", i, len(r.links), r.drain)
	}
	first, third := rounds[0], rounds[2]
	if fmt.Sprint(first.links) != fmt.Sprint(third.links) {
		t.Fatalf("the third round cut %v, the first %v: the tray did not return", third.links, first.links)
	}
	if first.drain.pathComps == 0 {
		t.Fatal("the first drain searched nothing: the comparison is vacuous")
	}
	if third.drain.pathComps != 0 || third.drain.standbySearches != first.drain.standbySearches {
		t.Errorf("third drain: %d searches for %d standby legs; want none for the first drain's %d", third.drain.pathComps, third.drain.standbySearches, first.drain.standbySearches)
	}
	if fmt.Sprint(first.standbys) != fmt.Sprint(third.standbys) {
		t.Errorf("standbys differ on the revisit:\n%v\n%v", first.standbys, third.standbys)
	}
}

// TestContractVMChurnRebuildsNoRoute: a VM is no vertex of the routing
// graph, so VM churn — a VM added, migrated and another removed,
// straight on the topology — rebuilds no route. The next provision and a
// re-plan of an unchanged chain's standby both run on the snapshot the
// fleet was provisioned on (0 graph builds), and the re-plan answers
// every leg from the memo the fleet warmed (0 misses). The VM added for
// the service is offered to the service's next provision: the live-VM
// index follows the topology's generation, and nothing invalidates it by
// hand.
func TestContractVMChurnRebuildsNoRoute(t *testing.T) {
	const chains = 12
	arch := fleet(t, chains, false)
	topo := arch.Topology()
	misses := func() (n int64) {
		for _, st := range arch.Sharded().ShardStats() {
			n += st.CandidateCacheMisses
		}
		return n
	}
	unchanged := arch.Sharded().Deployments()[0]
	if unchanged.Standby == nil {
		t.Fatalf("chain %d is unprotected: nothing to re-plan", unchanged.ID)
	}
	pms, vms := topo.NodeIDs(topology.KindPhysicalMachine), topo.NodeIDs(topology.KindVM)
	builds := topo.GraphBuilds()

	added, err := topo.AddVM(pms[0], "web")
	if err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	if err := topo.MigrateVM(added, pms[len(pms)-1]); err != nil {
		t.Fatalf("MigrateVM: %v", err)
	}
	// vms[1] ends no chain: every chain runs from the first web VM to the last.
	if err := topo.RemoveVM(vms[1]); err != nil {
		t.Fatalf("RemoveVM: %v", err)
	}

	dep, err := arch.Sharded().Provision(ctx, fleetSpecs(t, chains+1)[chains])
	if err != nil {
		t.Fatalf("provision after churn: %v", err)
	}
	if n := len(dep.Path); dep.Path[n-1] != added || dep.Path[n-2] != pms[len(pms)-1] {
		t.Errorf("the provision after churn runs %v; want it to end at the added VM %d via its new host %d", dep.Path, added, pms[len(pms)-1])
	}
	before := misses()
	out := arch.Sharded().ReProtectGroup(nil, orch.FailureDomain{}, []alvc.DeploymentID{unchanged.ID})
	if len(out) != 1 || out[0].Err != nil || !out[0].Replanned {
		t.Fatalf("re-plan of chain %d: %+v; want one re-planned outcome", unchanged.ID, out)
	}
	if got := misses() - before; got != 0 {
		t.Errorf("the re-plan after churn missed the memo %d times, want 0", got)
	}
	if got := out[0].Standby.Path; fmt.Sprint(got) != fmt.Sprint(unchanged.Standby.Path) {
		t.Errorf("the re-planned standby %v differs from the chain's %v", got, unchanged.Standby.Path)
	}
	if got := topo.GraphBuilds() - builds; got != 0 {
		t.Errorf("VM churn, a provision and a re-plan built the routing graph %d times, want 0", got)
	}
}
