package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// scrape is one GET /metrics, parsed: series name with its label set,
// exactly as exposed, to value. The per-layer ledger is the difference
// of two scrapes, so it reads what an operator's Prometheus would.
type scrape map[string]float64

func (f *fleet) scrape() (scrape, error) {
	if _, err := f.do("GET", "/metrics", nil, nil); err != nil {
		return nil, err
	}
	out := make(scrape)
	sc := bufio.NewScanner(bytes.NewReader(f.body.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: sample %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// sum adds up every series of the family whose label set contains all
// of the given `key="value"` fragments (shards fold together this way).
func (s scrape) sum(family string, labels ...string) float64 {
	total := 0.0
series:
	for name, v := range s {
		if name != family && !strings.HasPrefix(name, family+"{") {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(name, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

// max is the largest series of the family (per-shard high-water marks).
func (s scrape) max(family string) float64 {
	best := 0.0
	for name, v := range s {
		if (name == family || strings.HasPrefix(name, family+"{")) && v > best {
			best = v
		}
	}
	return best
}

// stageNames are the pipeline stages, in execution order.
var stageNames = []string{"cluster", "slice", "placement", "instantiate", "path", "standby", "wdm", "rules"}

// repairActions are the reconciler's actions the ledger reports.
var repairActions = []string{"swapped", "repathed", "replaced", "patched", "rebuilt", "failed"}

// ledger turns the before/after scrapes of the timed phase into the
// per-layer metrics read from /metrics: per op unless the name ends in
// _end (a gauge read after the phase) or says otherwise.
func ledger(before, after scrape, ops float64, rawPrimaryMeanMs float64, primaries float64) map[string]float64 {
	delta := func(family string, labels ...string) float64 {
		return after.sum(family, labels...) - before.sum(family, labels...)
	}
	perOp := func(family string, labels ...string) float64 { return delta(family, labels...) / ops }
	out := make(map[string]float64)

	stageSum := 0.0
	for _, st := range stageNames {
		secs := delta("alvc_orch_pipeline_stage_seconds_sum", `stage="`+st+`"`)
		out["orch.stage_"+st+"_ms"] = secs * 1e3 / ops
		stageSum += secs
	}
	out["orch.stage_sum_ms"] = stageSum * 1e3 / ops
	// What one primary request costs beyond the pipeline stages it ran:
	// HTTP, JSON, locks, indexes. Negative on bigpool_fill by design —
	// two workers overlap, so summed stage time exceeds the wall time.
	if primaries > 0 {
		out["server.overhead_ms"] = rawPrimaryMeanMs - stageSum*1e3/primaries
	}

	for _, a := range repairActions {
		out["orch.repairs_"+a] = perOp("alvc_orch_repairs_total", `action="`+a+`"`)
	}
	out["orch.debounce_coalesced"] = perOp("alvc_orch_debounce_coalesced_total")
	out["orch.debounce_flush_ms"] = perOp("alvc_orch_debounce_flush_seconds_sum") * 1e3

	out["sdn.path_computations"] = perOp("alvc_sdn_path_computations_total")
	out["sdn.yen_runs"] = perOp("alvc_sdn_yen_runs_total")
	hits, misses := delta("alvc_sdn_candidate_cache_hits_total"), delta("alvc_sdn_candidate_cache_misses_total")
	if hits+misses > 0 {
		out["sdn.candidate_cache_hit_ratio"] = hits / (hits + misses)
	} else {
		out["sdn.candidate_cache_hit_ratio"] = 0
	}
	out["sdn.installed_rules_end"] = after.sum("alvc_sdn_installed_rules")
	out["topology.graph_builds"] = delta("alvc_topology_graph_builds_total")
	out["topology.snapshot_hits"] = perOp("alvc_topology_snapshot_hits_total")
	out["topology.liveness_patches"] = perOp("alvc_topology_liveness_patches_total")

	out["optimizer.tasks"] = perOp("alvc_optimizer_tasks_total", `outcome="completed"`)
	out["optimizer.drain_ms"] = perOp("alvc_optimizer_drain_seconds_sum") * 1e3
	out["optimizer.queue_high_water"] = after.max("alvc_optimizer_queue_high_water")
	out["optimizer.queue_shed"] = delta("alvc_optimizer_queue_shed_total")
	out["resilience.groupplan_buckets"] = perOp("alvc_groupplan_buckets_total")
	out["resilience.groupplan_shared_chains"] = perOp("alvc_groupplan_shared_chains_total")
	out["resilience.groupplan_fallbacks"] = perOp("alvc_groupplan_fallbacks_total")
	out["resilience.standby_chains_end"] = after.sum("alvc_resilience_standby_chains", `status="disjoint"`) +
		after.sum("alvc_resilience_standby_chains", `status="non_disjoint"`)
	out["trace.spans"] = perOp("alvc_trace_spans_total")
	out["trace.spans_dropped"] = perOp("alvc_trace_spans_dropped_total")
	out["trace.store_spans_end"] = after.sum("alvc_trace_store_spans")
	return out
}
