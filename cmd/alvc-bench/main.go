// Command alvc-bench runs the experiment harness: every table and
// figure-level claim of the paper (E1..E15, see internal/experiments) is
// regenerated and printed as an aligned table, with the shape findings
// and any violations listed below each experiment.
//
// Usage:
//
//	alvc-bench                      # run every experiment
//	alvc-bench -exp E8              # run one experiment
//	alvc-bench -markdown            # emit the tables as markdown
//	alvc-bench -json                # also write BENCH_<id>.json per experiment
//	alvc-bench -repair -chains 50 -json
//	alvc-bench -path -json          # routing fast-path micro-bench
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/alvc/alvc/internal/experiments"
)

func main() {
	os.Exit(run())
}

// jsonResult is the machine-readable form of one experiment result,
// the BENCH_<id>.json format the roadmap's bench trajectory consumes.
type jsonResult struct {
	ID         string      `json:"id"`
	Title      string      `json:"title"`
	Figure     string      `json:"figure"`
	Tables     []jsonTable `json:"tables"`
	Findings   []string    `json:"findings"`
	Violations []string    `json:"violations"`
}

type jsonTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// writeJSONFile writes v as indented JSON to path.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run() int {
	exp := flag.String("exp", "", "run a single experiment (E1..E12); default all")
	markdown := flag.Bool("markdown", false, "emit markdown tables instead of aligned text")
	emitJSON := flag.Bool("json", false, "write BENCH_<name>.json machine-readable results")
	outDir := flag.String("out", ".", "directory for -json output files")
	repairMode := flag.Bool("repair", false, "repair-bench mode: measure in-process recovery latency vs fleet size")
	repairChains := flag.Int("chains", 50, "repair/resilience mode: fleet size to measure")
	resilienceMode := flag.Bool("resilience", false, "resilience-bench mode: compare standby-swap vs cold-repath recovery and rack-event batching")
	optimizerMode := flag.Bool("optimizer", false, "optimizer-bench mode: inline vs async re-protection at 12/25/50 chains and lambda-defrag before/after")
	pathMode := flag.Bool("path", false, "path-bench mode: routing fast path ns/op + allocs/op, cold graph rebuild vs epoch-cached snapshot")
	scaleMode := flag.Bool("scale", false, "scale-bench mode: provision+repair a tenant fleet (-chains) across shard counts 1/4/16")
	stormMode := flag.Bool("storm", false, "storm-bench mode: per-event vs debounced-batch recovery from a multi-tray link storm")
	flag.Parse()

	if *stormMode {
		report, err := runStormBench(*repairChains)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alvc-bench: %v\n", err)
			return 1
		}
		printStormReport(report)
		if *emitJSON {
			path := filepath.Join(*outDir, "BENCH_storm.json")
			if err := writeJSONFile(path, report); err != nil {
				fmt.Fprintf(os.Stderr, "alvc-bench: write %s: %v\n", path, err)
				return 1
			}
			fmt.Printf("wrote %s\n", path)
		}
		if v := stormViolations(report); v > 0 {
			fmt.Fprintf(os.Stderr, "alvc-bench: %d storm contract violations\n", v)
			return 2
		}
		return 0
	}

	if *scaleMode {
		report, err := runScaleBench(*repairChains)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alvc-bench: %v\n", err)
			return 1
		}
		printScaleReport(report)
		if *emitJSON {
			path := filepath.Join(*outDir, "BENCH_scale.json")
			if err := writeJSONFile(path, report); err != nil {
				fmt.Fprintf(os.Stderr, "alvc-bench: write %s: %v\n", path, err)
				return 1
			}
			fmt.Printf("wrote %s\n", path)
		}
		if v := scaleViolations(report); v > 0 {
			fmt.Fprintf(os.Stderr, "alvc-bench: %d scale contract violations\n", v)
			return 2
		}
		return 0
	}

	if *pathMode {
		report, err := runPathBench()
		if err != nil {
			fmt.Fprintf(os.Stderr, "alvc-bench: %v\n", err)
			return 1
		}
		printPathReport(report)
		if *emitJSON {
			path := filepath.Join(*outDir, "BENCH_path.json")
			if err := writeJSONFile(path, report); err != nil {
				fmt.Fprintf(os.Stderr, "alvc-bench: write %s: %v\n", path, err)
				return 1
			}
			fmt.Printf("wrote %s\n", path)
		}
		if v := pathViolations(report); v > 0 {
			fmt.Fprintf(os.Stderr, "alvc-bench: %d path fast-path contract violations\n", v)
			return 2
		}
		return 0
	}

	if *optimizerMode {
		report, err := runOptimizerBench(*repairChains)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alvc-bench: %v\n", err)
			return 1
		}
		printOptimizerReport(report)
		if *emitJSON {
			path := filepath.Join(*outDir, "BENCH_optimizer.json")
			if err := writeJSONFile(path, report); err != nil {
				fmt.Fprintf(os.Stderr, "alvc-bench: write %s: %v\n", path, err)
				return 1
			}
			fmt.Printf("wrote %s\n", path)
		}
		if v := optimizerViolations(report); v > 0 {
			fmt.Fprintf(os.Stderr, "alvc-bench: %d optimizer contract violations\n", v)
			return 2
		}
		return 0
	}

	if *resilienceMode {
		report, err := runResilienceBench(*repairChains)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alvc-bench: %v\n", err)
			return 1
		}
		printResilienceReport(report)
		if *emitJSON {
			path := filepath.Join(*outDir, "BENCH_resilience.json")
			if err := writeJSONFile(path, report); err != nil {
				fmt.Fprintf(os.Stderr, "alvc-bench: write %s: %v\n", path, err)
				return 1
			}
			fmt.Printf("wrote %s\n", path)
		}
		if v := resilienceViolations(report); v > 0 {
			fmt.Fprintf(os.Stderr, "alvc-bench: %d resilience contract violations\n", v)
			return 2
		}
		return 0
	}

	if *repairMode {
		report, err := runRepairBench(*repairChains)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alvc-bench: %v\n", err)
			return 1
		}
		printRepairReport(report)
		if *emitJSON {
			path := filepath.Join(*outDir, "BENCH_repair.json")
			if err := writeJSONFile(path, report); err != nil {
				fmt.Fprintf(os.Stderr, "alvc-bench: write %s: %v\n", path, err)
				return 1
			}
			fmt.Printf("wrote %s\n", path)
		}
		if v := repairViolations(report); v > 0 {
			fmt.Fprintf(os.Stderr, "alvc-bench: %d repair contract violations\n", v)
			return 2
		}
		return 0
	}

	var results []*experiments.Result
	if *exp != "" {
		res, err := experiments.Run(*exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alvc-bench: %v\n", err)
			return 1
		}
		results = append(results, res)
	} else {
		var err error
		results, err = experiments.RunAll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "alvc-bench: %v\n", err)
			return 1
		}
	}

	violations := 0
	for _, res := range results {
		if *markdown {
			fmt.Printf("## %s — %s\n\n", res.ID, res.Title)
			fmt.Printf("*Reproduces:* %s\n\n", res.Figure)
			for _, tbl := range res.Tables {
				fmt.Println(tbl.Markdown())
			}
			for _, f := range res.Findings {
				fmt.Printf("- ✅ %s\n", f)
			}
			for _, v := range res.Violations {
				fmt.Printf("- ❌ %s\n", v)
			}
			fmt.Println()
		} else {
			fmt.Printf("=== %s — %s\n", res.ID, res.Title)
			fmt.Printf("    reproduces: %s\n\n", res.Figure)
			for _, tbl := range res.Tables {
				if err := tbl.Render(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "alvc-bench: render: %v\n", err)
					return 1
				}
				fmt.Println()
			}
			for _, f := range res.Findings {
				fmt.Printf("  [ok] %s\n", f)
			}
			for _, v := range res.Violations {
				fmt.Printf("  [VIOLATION] %s\n", v)
			}
			fmt.Println()
		}
		if *emitJSON {
			out := jsonResult{
				ID: res.ID, Title: res.Title, Figure: res.Figure,
				Findings: res.Findings, Violations: res.Violations,
			}
			for _, tbl := range res.Tables {
				out.Tables = append(out.Tables, jsonTable{
					Title: tbl.Title, Headers: tbl.Headers, Rows: tbl.Rows(),
				})
			}
			path := filepath.Join(*outDir, fmt.Sprintf("BENCH_%s.json", res.ID))
			if err := writeJSONFile(path, out); err != nil {
				fmt.Fprintf(os.Stderr, "alvc-bench: write %s: %v\n", path, err)
				return 1
			}
		}
		violations += len(res.Violations)
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "alvc-bench: %d shape violations\n", violations)
		return 2
	}
	return 0
}
