package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/topology"
)

// scaleShardCounts is the shard sweep: one orchestrator, then 4 and 16
// shards of the same fleet.
var scaleShardCounts = []int{1, 4, 16}

// scaleBenchReport is the machine-readable result of one scale bench
// run (BENCH_scale.json): the same tenant fleet provisioned and
// repaired at each shard count. The sharding contract is that
// partitioning is never a pathology — no shard count below scaleFloor
// (0.5) of the single-shard provision and repair throughput — every repair
// succeeds, and zero routing-graph rebuilds during provisioning
// (placement never mutates the shared topology, so the epoch-cached
// snapshot must stay warm).
type scaleBenchReport struct {
	Name       string        `json:"name"`
	Chains     int           `json:"chains"`
	Samples    []scaleSample `json:"samples"`
	Violations []string      `json:"violations"`
}

// scaleSample is one shard count's measurement over the full fleet.
type scaleSample struct {
	Shards int `json:"shards"`
	// ProvisionMs is the wall time of batch-provisioning the fleet
	// (minus one warmup chain that pays the cold snapshot build).
	ProvisionMs  float64 `json:"provision_ms"`
	ProvisionRPS float64 `json:"provision_rps"`
	// RepairMs is the wall time of the batch failure that kills one
	// slice OPS per scaleVictimStride chains across all shards.
	RepairMs  float64 `json:"repair_ms"`
	RepairRPS float64 `json:"repair_rps"`
	Repaired  int     `json:"repaired"`
	Failed    int     `json:"failed"`
	// WarmGraphBuilds counts routing-graph rebuilds observed during the
	// provisioning phase (after the warmup chain). Contract: 0 — only
	// failures mutate topology.
	WarmGraphBuilds uint64 `json:"warm_graph_builds"`
	// ProvisionSpeedup / RepairSpeedup are throughput ratios against
	// the shards=1 sample (1.0 for the baseline itself).
	ProvisionSpeedup float64 `json:"provision_speedup"`
	RepairSpeedup    float64 `json:"repair_speedup"`
	// ShardStats is the per-shard breakdown after the run, showing how
	// evenly tenant hashing spread the fleet.
	ShardStats []alvc.ShardStat `json:"shard_stats"`
}

// scaleFloor is the least a shard count's throughput may be, as a share
// of one shard's. Four shards used to deliver 2x because Yen's
// k-shortest standby search scaled with the pool a shard searched; the
// avoiding search that replaced it does not, so shards now run level
// with one orchestrator less what partitioning costs — the pool
// densified per search and, on this fleet of mostly single-homed
// machines where no disjoint standby exists, a second whole-fabric plan
// per chain. Measured on 2 shared CPUs (median of three fleets per shard
// count): 0.7–1.0x provision, 0.7–1.3x repair, every shard count 3–10x
// its own throughput under the old planner. The floor is a tripwire for
// a partitioning pathology, set clear of that spread.
const scaleFloor = 0.5

// scaleRounds is how many fresh fleets each shard count is measured on.
const scaleRounds = 3

// scaleVictimStride picks one repair victim per this many chains.
// Deployment IDs are strided by shard count, so the stride must be
// coprime with every swept shard count (1/4/16) — otherwise the
// victims alias onto a couple of shards and exhaust their pools
// instead of spreading the repair load.
const scaleVictimStride = 7

// scaleTopology is repairTopology with 2x OPS headroom: per-shard
// allocator pools split the OPS list round-robin, and tenant hashing
// is only statistically uniform, so the heaviest shard needs slack
// beyond chains/shards exclusive slice OPSs.
func scaleTopology(chains int) alvc.TopologyConfig {
	cfg := repairTopology(chains)
	cfg.OPSCount = 2 * chains
	cfg.ToRUplinks = cfg.OPSCount
	return cfg
}

// runScaleBench provisions and repairs the same fleet at each shard
// count and reports throughput scaling.
func runScaleBench(chains int) (*scaleBenchReport, error) {
	if chains < 2*scaleShardCounts[len(scaleShardCounts)-1] {
		return nil, fmt.Errorf("scale bench: need at least %d chains, got %d",
			2*scaleShardCounts[len(scaleShardCounts)-1], chains)
	}
	report := &scaleBenchReport{Name: "scale", Chains: chains}
	for _, n := range scaleShardCounts {
		// A fleet provisions in ~0.1 s, so one scheduler blip moves a
		// single reading by half: keep the round whose provision
		// throughput is the median.
		rounds := make([]*scaleSample, scaleRounds)
		for i := range rounds {
			var err error
			if rounds[i], err = scaleAt(chains, n); err != nil {
				return nil, fmt.Errorf("scale bench at %d shards: %w", n, err)
			}
		}
		sort.Slice(rounds, func(i, j int) bool { return rounds[i].ProvisionRPS < rounds[j].ProvisionRPS })
		report.Samples = append(report.Samples, *rounds[scaleRounds/2])
	}
	base := report.Samples[0]
	for i := range report.Samples {
		s := &report.Samples[i]
		if base.ProvisionRPS > 0 {
			s.ProvisionSpeedup = s.ProvisionRPS / base.ProvisionRPS
		}
		if base.RepairRPS > 0 {
			s.RepairSpeedup = s.RepairRPS / base.RepairRPS
		}
	}
	report.Violations = scaleContract(report)
	return report, nil
}

func scaleAt(chains, shards int) (*scaleSample, error) {
	ctx := context.Background()
	arch, err := alvc.New(scaleTopology(chains), alvc.WithShards(shards))
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

	// Warmup: the first chain pays the cold snapshot build so the
	// timed phase measures steady-state provisioning.
	if _, err := arch.Deploy(ctx, specs[0]); err != nil {
		return nil, fmt.Errorf("warmup provision: %w", err)
	}
	buildsBefore := arch.Topology().GraphBuilds()

	provStart := time.Now()
	results := arch.DeployBatch(specs[1:])
	provision := time.Since(provStart)
	for _, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("provision %d: %w", res.Index+1, res.Err)
		}
	}
	warmBuilds := arch.Topology().GraphBuilds() - buildsBefore

	// Repair phase: kill one slice OPS per scaleVictimStride chains in
	// a single batch event. Victims land on every shard (pools are
	// round-robin over the OPS list), so the fan-out path is exercised.
	var victims []topology.NodeID
	seen := make(map[topology.NodeID]bool)
	for i, dep := range arch.Deployments() {
		if i%scaleVictimStride != 0 || dep.Slice == nil || len(dep.Slice.OPSs) == 0 {
			continue
		}
		v := dep.Slice.OPSs[0]
		if !seen[v] {
			seen[v] = true
			victims = append(victims, v)
		}
	}
	repairStart := time.Now()
	reports, err := arch.FailBatch(ctx, victims, nil)
	repair := time.Since(repairStart)
	if err != nil {
		return nil, fmt.Errorf("FailBatch(%d victims): %w", len(victims), err)
	}

	sample := &scaleSample{
		Shards:          shards,
		ProvisionMs:     float64(provision) / float64(time.Millisecond),
		RepairMs:        float64(repair) / float64(time.Millisecond),
		WarmGraphBuilds: warmBuilds,
		ShardStats:      arch.ShardStats(),
	}
	if sec := provision.Seconds(); sec > 0 {
		sample.ProvisionRPS = float64(len(results)) / sec
	}
	for _, rep := range reports {
		if rep.Succeeded() {
			sample.Repaired++
		} else {
			sample.Failed++
		}
	}
	if sec := repair.Seconds(); sec > 0 {
		sample.RepairRPS = float64(sample.Repaired) / sec
	}
	return sample, nil
}

// scaleContract evaluates the sharding contract and returns the
// violations: every repair must succeed, provisioning must never
// rebuild the routing graph, and no shard count may provision or repair
// at less than scaleFloor of one shard's throughput.
func scaleContract(r *scaleBenchReport) []string {
	var out []string
	for _, s := range r.Samples {
		if s.Failed > 0 {
			out = append(out, fmt.Sprintf("shards=%d: %d failed repairs", s.Shards, s.Failed))
		}
		if s.WarmGraphBuilds != 0 {
			out = append(out, fmt.Sprintf(
				"shards=%d: %d routing-graph rebuilds during provisioning (contract: 0 on unchanged topology)",
				s.Shards, s.WarmGraphBuilds))
		}
		if s.ProvisionSpeedup < scaleFloor {
			out = append(out, fmt.Sprintf(
				"shards=%d provision throughput %.2fx shards=1 (contract: >= %.1fx)", s.Shards, s.ProvisionSpeedup, scaleFloor))
		}
		if s.RepairSpeedup < scaleFloor {
			out = append(out, fmt.Sprintf(
				"shards=%d repair throughput %.2fx shards=1 (contract: >= %.1fx)", s.Shards, s.RepairSpeedup, scaleFloor))
		}
	}
	return out
}

func printScaleReport(r *scaleBenchReport) {
	fmt.Printf("scale: %d-chain fleet provision+repair throughput vs shard count\n", r.Chains)
	for _, s := range r.Samples {
		fmt.Printf("  %2d shards: provision %8.1f rps (%8.1f ms, %.2fx)  repair %8.1f rps (%8.3f ms, %.2fx, %d repaired",
			s.Shards, s.ProvisionRPS, s.ProvisionMs, s.ProvisionSpeedup,
			s.RepairRPS, s.RepairMs, s.RepairSpeedup, s.Repaired)
		if s.Failed > 0 {
			fmt.Printf(", FAILED %d", s.Failed)
		}
		if s.WarmGraphBuilds > 0 {
			fmt.Printf(", %d warm rebuilds", s.WarmGraphBuilds)
		}
		fmt.Println(")")
	}
	for _, v := range r.Violations {
		fmt.Printf("  [VIOLATION] %s\n", v)
	}
}

// scaleViolations returns the number of contract violations in the run.
func scaleViolations(r *scaleBenchReport) int { return len(r.Violations) }
