package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestMain lets the test binary serve as the parallel kernel's reference
// server, as the benchmark binary does for itself.
func TestMain(m *testing.M) {
	if os.Getenv(refServerEnv) != "" {
		os.Exit(refServerMain())
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the program
// saying the same thing: every workload, metric, unit and bound.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program %q", i, b.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, program %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > endToEnd[0].bound {
			t.Errorf("%s: bound %v must be positive and no wider than setup_s's", d.name, d.bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, program %+v", i, got, d)
		}
	}
}

// TestSmoke runs every workload at about 1 % size, untraced and
// traced, and checks the schema and the output checks. It asserts
// nothing about wall-clock.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				dir := t.TempDir()
				res, err := runWorkload(w, w.smoke, 1, traced, dir)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted <= 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d: %v", traced, res.correct, res.attempted, res.failed, res.errs)
				}
				// No verb of the mix may cost a chain its protection.
				if got, was := res.e2e["protected_share"], res.diag["bench.protected_share_setup"]; w.name == "operate_mix" && got != was {
					t.Errorf("traced=%v: protected_share %v at the end, %v after set-up", traced, got, was)
				}
				if sent, served := res.diag["bench.requests_sent"], res.diag["bench.requests_served"]; sent == 0 || sent != served {
					t.Errorf("traced=%v: client sent %v requests, server handled %v", traced, sent, served)
				}
				rep := res.report(traced)
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics reported, want %d", traced, len(rep.Metrics), len(defs))
				}
				values := res.e2e
				if traced {
					values = res.layers
				}
				for _, d := range defs {
					v, ok := values[d.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("traced=%v: metric %s missing or not finite (%v)", traced, d.name, v)
					}
					if !traced && v <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", d.name, v)
					}
					if rep.Metrics[d.name].Unit != d.unit {
						t.Errorf("metric %s: unit %q, want %q", d.name, rep.Metrics[d.name].Unit, d.unit)
					}
				}
				if !traced {
					continue
				}
				data, err := os.ReadFile(res.spanFile)
				if err != nil {
					t.Fatal(err)
				}
				var file struct {
					Workload string    `json:"workload"`
					Spans    []spanRec `json:"spans"`
				}
				if err := json.Unmarshal(data, &file); err != nil {
					t.Fatal(err)
				}
				byID := make(map[uint64]*spanRec, len(file.Spans))
				for i := range file.Spans {
					byID[file.Spans[i].ID] = &file.Spans[i]
				}
				replays := 0
				for _, sp := range file.Spans {
					if sp.EndNs < sp.StartNs {
						t.Errorf("span %d %s ends before it starts", sp.ID, sp.Name)
					}
					if sp.Parent != 0 && byID[sp.Parent] == nil {
						t.Errorf("span %d %s: parent %d not recorded", sp.ID, sp.Name, sp.Parent)
					}
					if sp.Name == "replay" {
						replays++
					}
				}
				if file.Workload != w.name || replays == 0 {
					t.Errorf("span file: workload %q, %d replays", file.Workload, replays)
				}
			}
		})
	}
}

// TestSeedDrivesOnlyTheScript: the same seed gives the same script and
// the same counts, another seed another script.
func TestSeedDrivesOnlyTheScript(t *testing.T) {
	// Counts that do not depend on goroutine scheduling (the two batch
	// workers and the parallel repair pool may race for a memo entry, so
	// Yen runs and cache hits are left out).
	counts := []string{"orch.repairs_repathed", "orch.repairs_failed", "orch.debounce_coalesced",
		"topology.liveness_patches", "topology.graph_builds", "sdn.installed_rules_end", "resilience.standby_chains_end"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if a, b := w.script(newGen(7), w.smoke).hash(), w.script(newGen(8), w.smoke).hash(); a == b {
				t.Errorf("seeds 7 and 8 generate the same script %s", a)
			}
			first, err := runWorkload(w, w.smoke, 7, false, "")
			if err != nil {
				t.Fatal(err)
			}
			second, err := runWorkload(w, w.smoke, 7, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if first.scriptHash != second.scriptHash {
				t.Errorf("seed 7 generated scripts %s and %s", first.scriptHash, second.scriptHash)
			}
			if first.attempted != second.attempted || first.failed != second.failed {
				t.Errorf("attempted/failed %d/%d then %d/%d", first.attempted, first.failed, second.attempted, second.failed)
			}
			if w.name == "failure_storm" {
				// A tray's links are resolved from its chains' live paths, and on
				// the nearly full smoke pool those depend on how the batch workers
				// and the repair pool interleave: the requests are the script's,
				// their count per round is not the seed's alone.
				return
			}
			if a, b := first.e2e["protected_share"], second.e2e["protected_share"]; a != b {
				t.Errorf("protected_share %v then %v", a, b)
			}
			for _, name := range append(counts, "bench.requests_sent") {
				a, aok := first.layers[name]
				b, bok := second.layers[name]
				if !aok {
					a, aok = first.diag[name]
					b, bok = second.diag[name]
				}
				if !aok || !bok || a != b {
					t.Errorf("%s: %v then %v", name, a, b)
				}
			}
		})
	}
}

// TestQuantile pins the one quantile helper to the method the driver
// judges spreads with (Python's statistics.quantiles, exclusive).
func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for p, want := range map[float64]float64{0.25: 1.25, 0.5: 2.5, 0.75: 3.75, 0.01: 1, 0.99: 4} {
		if got := quantile(v, p); got != want {
			t.Errorf("quantile(%v, %v) = %v, want %v", v, p, got, want)
		}
	}
	if got := quantile([]float64{5, 7, 6}, 0.5); got != 6 {
		t.Errorf("median of three = %v, want 6", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}
