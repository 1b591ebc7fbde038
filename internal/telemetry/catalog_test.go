package telemetry

// What /metrics promises, checked against what it serves: the README's
// family table is the registry's family list, every ShardStat field is
// one series per shard, and a scrape's size is bounded by the shard
// count, never by the fleet.

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/chain"
)

// expandCatalogEntry expands one README catalog entry —
// `alvc_x_{a,b}_total{shard}` — into family names: a brace group after
// an underscore lists name alternatives, any other brace group is the
// family's label set.
func expandCatalogEntry(entry string) []string {
	names := []string{""}
	for entry != "" {
		open := strings.IndexByte(entry, '{')
		if open < 0 {
			open = len(entry)
		}
		for i := range names {
			names[i] += entry[:open]
		}
		if open == len(entry) {
			break
		}
		end := open + strings.IndexByte(entry[open:], '}')
		if open > 0 && entry[open-1] == '_' {
			var alts []string
			for _, n := range names {
				for _, alt := range strings.Split(entry[open+1:end], ",") {
					alts = append(alts, n+alt)
				}
			}
			names = alts
		}
		entry = entry[end+1:]
	}
	return names
}

// TestReadmeCatalogEqualsRegistry: the README's metric catalog, its
// `{a,b}` groups expanded, names exactly the families a plane registers.
func TestReadmeCatalogEqualsRegistry(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| layer | key families |\n|---|---|\n")
	if !ok {
		t.Fatal("README has no metric catalog table")
	}
	if end := strings.Index(table, "\n\n"); end >= 0 {
		table = table[:end]
	}
	var documented []string
	for _, m := range regexp.MustCompile("`(alvc_[^`]*)`").FindAllStringSubmatch(table, -1) {
		documented = append(documented, expandCatalogEntry(m[1])...)
	}
	slices.Sort(documented)

	p := NewPlane(newTestArch(t), 0)
	defer p.Close()
	if registered := p.Registry().FamilyNames(); !slices.Equal(documented, registered) {
		t.Errorf("README catalog and registry differ\nREADME only:   %v\nregistry only: %v",
			missingFrom(documented, registered), missingFrom(registered, documented))
	}
}

// missingFrom returns the names of a that b lacks.
func missingFrom(a, b []string) (out []string) {
	for _, n := range a {
		if !slices.Contains(b, n) {
			out = append(out, n)
		}
	}
	return out
}

// sample is one exposition line: the series name, its labels as
// written, and the value.
type sample struct {
	name   string
	labels map[string]string
	key    string // name{labels} exactly as exposed
	value  float64
}

var labelPair = regexp.MustCompile(`(\w+)="((?:[^"\\]|\\.)*)"`)

// parseExposition reads the sample lines of a scrape and the families'
// types from its # TYPE lines.
func parseExposition(t *testing.T, text string) (samples []sample, types map[string]string) {
	t.Helper()
	types = make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(f, " ")
			types[name] = typ
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		s := sample{key: line[:cut], value: v, labels: make(map[string]string)}
		s.name, _, _ = strings.Cut(s.key, "{")
		for _, m := range labelPair.FindAllStringSubmatch(s.key[len(s.name):], -1) {
			s.labels[m[1]] = m[2]
		}
		samples = append(samples, s)
	}
	return samples, types
}

// servedAs says where GET /metrics serves a ShardStat field: the family
// and the labels beside shard. The protection split is summed over the
// shards, on the fleet-wide family the benchmark ledger reads, and so are
// the standby fallbacks.
var servedAs = map[string]struct {
	family, labels string
	summed         bool
}{
	"Active":               {"alvc_orch_deployments", `state="active"`, false},
	"Failed":               {"alvc_orch_deployments", `state="failed"`, false},
	"Deleted":              {"alvc_orch_deletes_total", "", false},
	"Repairs":              {"alvc_orch_shard_repairs_total", "", false},
	"StandbyDisjoint":      {"alvc_resilience_standby_chains", `status="disjoint"`, true},
	"StandbyNonDisjoint":   {"alvc_resilience_standby_chains", `status="non_disjoint"`, true},
	"Unprotected":          {"alvc_resilience_standby_chains", `status="unprotected"`, true},
	"Drifted":              {"alvc_orch_drifted_chains", "", false},
	"Conversions":          {"alvc_oeo_conversions", "", false},
	"EnergyJoules":         {"alvc_oeo_energy_joules", "", false},
	"OPSPool":              {"alvc_cluster_ops_pool", "", false},
	"VCs":                  {"alvc_cluster_vcs", "", false},
	"PathComputations":     {"alvc_sdn_path_computations_total", "", false},
	"YenRuns":              {"alvc_sdn_yen_runs_total", "", false},
	"InstalledRules":       {"alvc_sdn_installed_rules", "", false},
	"RuleInstalls":         {"alvc_sdn_rule_installs_total", "", false},
	"CandidateCacheHits":   {"alvc_sdn_candidate_cache_hits_total", "", false},
	"CandidateCacheMisses": {"alvc_sdn_candidate_cache_misses_total", "", false},
	"ProvisionOK":          {"alvc_orch_provisions_total", `outcome="ok"`, false},
	"ProvisionFailed":      {"alvc_orch_provisions_total", `outcome="failed"`, false},
	"BusyOps":              {"alvc_orch_shard_busy_ops", "", false},
	"StandbyFallbacks":     {"alvc_resilience_standby_fallbacks_total", "", true},
}

// seriesKey renders a series name as the exposition writes it.
func seriesKey(family string, labels ...string) string {
	var set []string
	for _, l := range labels {
		if l != "" {
			set = append(set, l)
		}
	}
	if len(set) == 0 {
		return family
	}
	return family + "{" + strings.Join(set, ",") + "}"
}

// fleetPlane is a plane over a sharded architecture with WDM,
// optimizer and debouncer, after provisions, one debounced failure of a
// slice OPS of every chain but the first, left undrained (so chains are
// drifted and queued), and a delete.
func fleetPlane(t *testing.T, shards int) (*alvc.Architecture, *Plane) {
	t.Helper()
	cfg := alvc.DefaultTopology()
	cfg.Racks = 4
	cfg.OPSCount = 64
	cfg.ToRUplinks = 64
	cfg.OPSChords = 0
	cfg.DualHomeFrac = 0.5
	arch, err := alvc.New(cfg,
		alvc.WithShards(shards),
		alvc.WithWavelengths(4),
		alvc.WithOptimizer(alvc.OptimizerOptions{}),
		alvc.WithFailureDebounce(time.Hour))
	if err != nil {
		t.Fatalf("alvc.New: %v", err)
	}
	p := NewPlane(arch, 0)
	t.Cleanup(p.Close)
	var deps []*alvc.Deployment
	for i := 0; i < 16; i++ {
		spec, err := chain.Linear(fmt.Sprintf("c%d", i), fmt.Sprintf("tenant-%d", i), "web", 2, 1<<20, "firewall", "lb")
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		if dep, err := arch.Sharded().Provision(context.Background(), spec); err == nil {
			deps = append(deps, dep)
		}
	}
	if len(deps) < 12 {
		t.Fatalf("only %d chains provisioned", len(deps))
	}
	var victims []alvc.NodeID
	for _, dep := range deps[1:] {
		victims = append(victims, dep.Slice.OPSs[0])
	}
	arch.Debouncer().Report(context.Background(), alvc.NewFailures(victims, nil))
	if reports, err := arch.FlushFailures(); err != nil || len(reports) < len(victims) {
		t.Fatalf("flush: %d reports for %d failed slices, %v", len(reports), len(victims), err)
	}
	if _, err := arch.Sharded().Delete(context.Background(), deps[0].ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	return arch, p
}

// TestShardStatIsServed: in one scrape, every ShardStat field's value
// for every shard is on its series, and every per-shard series reads
// exactly one field — the optimizer's per-queue families aside, which
// come from OptimizerStatus.
func TestShardStatIsServed(t *testing.T) {
	arch, p := fleetPlane(t, 4)
	samples, _ := parseExposition(t, scrape(t, p))
	stats := arch.Sharded().ShardStats() // nothing runs between the scrape and this read
	served := make(map[string]float64, len(samples))
	for _, s := range samples {
		served[s.key] = s.value
	}

	want := make(map[string]float64) // series → the field values it serves
	readBy := make(map[string]string)
	typ := reflect.TypeOf(alvc.ShardStat{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i).Name
		if field == "Shard" {
			continue // the shard label itself
		}
		at, ok := servedAs[field]
		if !ok {
			t.Errorf("ShardStat.%s has no series on /metrics", field)
			continue
		}
		for _, st := range stats {
			key := seriesKey(at.family, fmt.Sprintf(`shard="%d"`, st.Shard), at.labels)
			if at.summed {
				key = seriesKey(at.family, at.labels)
			}
			if prev, dup := readBy[key]; dup && prev != field {
				t.Errorf("series %s reads both ShardStat.%s and .%s", key, prev, field)
			}
			readBy[key] = field
			switch v := reflect.ValueOf(st).Field(i); v.Kind() {
			case reflect.Int, reflect.Int64:
				want[key] += float64(v.Int())
			case reflect.Uint64:
				want[key] += float64(v.Uint())
			case reflect.Float64:
				want[key] += v.Float()
			default:
				t.Fatalf("ShardStat.%s: unexpected kind %s", field, v.Kind())
			}
		}
	}
	for key, w := range want {
		got, ok := served[key]
		if !ok {
			t.Errorf("/metrics lacks %s (ShardStat.%s)", key, readBy[key])
		} else if math.Abs(got-w) > 1e-9*math.Max(1, math.Abs(w)) {
			t.Errorf("%s = %v, ShardStat.%s reads %v", key, got, readBy[key], w)
		}
	}
	for _, s := range samples {
		if _, perShard := s.labels["shard"]; perShard && readBy[s.key] == "" {
			t.Errorf("per-shard series %s reads no ShardStat field", s.key)
		}
	}
}

// TestCardinalityBudget: one scrape at 16 shards, after a lifecycle over
// a fleet, holds at most per-shard families × 16 plus the fixed series.
// Every label ranges over a bound the fleet cannot move — shards, racks,
// the repair actions, event and task kinds, pipeline stages — so a
// family's budget is the product of its labels' bounds, and a label keyed
// by chain, link or node has none and fails the test.
func TestCardinalityBudget(t *testing.T) {
	const shards = 16
	arch, p := fleetPlane(t, shards)
	arch.Optimizer().Drain()
	samples, types := parseExposition(t, scrape(t, p))

	bound := map[string]int{
		"shard":     shards,
		"outcome":   7, // an optimizer task's fates; a provision has 2
		"state":     2, // active, failed
		"status":    3, // disjoint, non_disjoint, unprotected
		"action":    8, // the orch.RepairAction values
		"kind":      5, // the orch event kinds; 4 optimizer task kinds, 2 CPU kinds
		"stage":     8, // the pipeline stages
		"resource":  2, // nodes, links
		"domain":    2, // electronic, optical
		"rack":      alvc.DefaultTopology().Racks,
		"direction": 2, // from, to
	}
	series := make(map[string]map[string]bool) // family → its label sets
	labelNames := make(map[string][]string)
	for _, s := range samples {
		family := s.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(s.name, suffix); ok && types[base] == "histogram" {
				family = base
			}
		}
		delete(s.labels, "le") // a histogram's buckets are one series
		var names, set []string
		for name, v := range s.labels {
			names = append(names, name)
			set = append(set, name+"="+v)
		}
		slices.Sort(names)
		slices.Sort(set)
		if series[family] == nil {
			series[family] = make(map[string]bool)
		}
		series[family][strings.Join(set, ",")] = true
		labelNames[family] = names
	}

	var perShard, fixed, total int
	for family, sets := range series {
		budget, sharded := 1, false
		for _, name := range labelNames[family] {
			b, ok := bound[name]
			if !ok {
				t.Errorf("%s has label %q, which no fleet-independent bound covers", family, name)
			}
			if name == "shard" {
				sharded = true
				continue
			}
			budget *= b
		}
		if sharded {
			perShard += budget
			budget *= shards
		} else {
			fixed += budget
		}
		if len(sets) > budget {
			t.Errorf("%s has %d series, budget %d", family, len(sets), budget)
		}
		total += len(sets)
	}
	// The optimizer has one queue, whatever the shard count.
	for _, family := range []string{"alvc_optimizer_queue_depth", "alvc_optimizer_queue_high_water"} {
		if n := len(series[family]); n != 1 {
			t.Errorf("%s has %d series, want the engine's one", family, n)
		}
	}
	t.Logf("%d series in %d families; budget %d per-shard × %d + %d fixed = %d", total, len(series), perShard, shards, fixed, perShard*shards+fixed)
	if total > perShard*shards+fixed {
		t.Errorf("%d series over the budget of %d", total, perShard*shards+fixed)
	}
}
