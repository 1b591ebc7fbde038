// Command benchmark is the repository's one repeatable benchmark: four
// fixed-count closed-loop HTTP workloads against an in-process
// alvc-server, calibrated timings, exact cost counts and a per-layer
// ledger. See README.md for every metric and workload by name.
//
//	go run ./benchmark                              # every workload, full size
//	go run ./benchmark --workload provision_churn --seed 7 --seconds 20 --trace 0
//	go run ./benchmark --trace 1                    # traced runs, one span file per workload
//	go run ./benchmark --selfcheck 5                # spread of every end-to-end metric
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics — the end-to-end ones with
// --trace 0, the per-layer ones with --trace 1. The line before it is
// the run's bench.* diagnostics, as one JSON object too.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// defaultSeconds is the run length BENCHMARK.json fixes; the op counts
// of a run are constants of it.
const defaultSeconds = 20

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a run ends with.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (res *result) report(traced bool) report {
	defs, values := endToEnd, res.e2e
	if traced {
		defs, values = perLayer, res.layers
	}
	rep := report{Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return rep
}

// normalizeArgs lets --trace stand alone: the flag takes 0 or 1, and a
// bare --trace means 1.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i, a := range args {
		if (a == "--trace" || a == "-trace") && (i+1 == len(args) || strings.HasPrefix(args[i+1], "-")) {
			a = "--trace=1"
		}
		out = append(out, a)
	}
	return out
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	if os.Getenv(refServerEnv) != "" {
		return refServerMain()
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all): provision_churn, bigpool_fill, failure_storm, operate_mix")
	seed := fs.Int64("seed", 1, "seed of the op-script generator")
	seconds := fs.Int("seconds", defaultSeconds, "run length the op counts are sized for")
	trace := fs.Int("trace", 0, "1: traced run — per-layer metrics and a span file under --out")
	out := fs.String("out", "benchmark/out", "directory for span files")
	selfcheck := fs.Int("selfcheck", 0, "run every workload N times and report each end-to-end metric's spread")
	if err := fs.Parse(normalizeArgs(os.Args[1:])); err != nil {
		return 2
	}
	if *seconds < 1 || fs.NArg() > 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive, --trace 0 or 1, and no arguments may follow the flags")
		return 2
	}
	if *selfcheck > 0 {
		return runSelfcheck(*selfcheck, *seed, *seconds)
	}
	run := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		run = []*workload{w}
	}
	code := 0
	for _, w := range run {
		res, err := runWorkload(w, w.size(*seconds), *seed, *trace == 1, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		res.print(os.Stdout)
		for _, v := range []any{res.diag, res.report(*trace == 1)} {
			line, err := json.Marshal(v)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			fmt.Println(string(line))
		}
		if !res.correct {
			code = 1
		}
	}
	return code
}
