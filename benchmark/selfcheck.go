package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// rawDiagnostics are the uncalibrated readings the selfcheck table
// shows under the calibrated ones.
var rawDiagnostics = []string{"bench.setup_s_raw", "bench.ops_per_s_raw", "bench.primary_p50_ms_raw",
	"bench.primary_p75_ms_raw", "bench.primary_p90_ms_raw", "bench.primary_p99_ms_raw", "bench.secondary_p50_ms_raw",
	"bench.ref_serial_ns", "bench.ref_parallel_ns"}

// runSelfcheck runs every workload n times, each run in a process of
// its own on its own seed — the way the driver runs the benchmark — and
// prints, per end-to-end metric, min, median, max, the spread
// (max-min)/median, the quartile spread (q3-q1)/median the driver
// judges by, and the bound. The raw readings are printed beside the
// calibrated ones. It returns non-zero when a spread other than
// setup_s's exceeds its bound or a run is incorrect.
func runSelfcheck(n int, seed int64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: selfcheck: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed+int64(i), 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: selfcheck: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			// A run ends with two JSON lines: its diagnostics, then its report.
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			var diag map[string]float64
			if len(lines) < 2 || json.Unmarshal(lines[len(lines)-1], &rep) != nil ||
				json.Unmarshal(lines[len(lines)-2], &diag) != nil || !rep.Correct || rep.Failed > 0 {
				fmt.Fprintf(os.Stderr, "benchmark: selfcheck: %s run %d: bad result: %s\n", w.name, i, lines[len(lines)-1])
				return 1
			}
			for name, m := range rep.Metrics {
				values[name] = append(values[name], m.Value)
			}
			for _, name := range rawDiagnostics {
				values[name] = append(values[name], diag[name])
			}
		}
		fmt.Printf("== %s: %d runs, seeds %d..%d\n", w.name, n, seed, seed+int64(n)-1)
		fmt.Printf("   %-28s %12s %12s %12s %8s %8s %6s\n", "metric", "min", "median", "max", "spread", "q3-q1", "bound")
		for _, d := range endToEnd {
			// setup_s is shown and not judged: the driver, too, accepts a
			// benchmark on every spread "except that of setup_s".
			if spread := printSpread(d.name, values[d.name], fmt.Sprintf("%5.1f%%", d.bound*100)); spread > d.bound && d.name != "setup_s" {
				fmt.Printf("   ^ spread %.1f%% exceeds the %.0f%% bound\n", spread*100, d.bound*100)
				code = 1
			}
		}
		for _, name := range rawDiagnostics {
			printSpread(name, values[name], "")
		}
	}
	return code
}

// printSpread prints one row of the selfcheck table and returns the
// spread (max-min)/median.
func printSpread(name string, v []float64, bound string) float64 {
	if len(v) == 0 {
		return 0
	}
	lo, med, hi := slices.Min(v), quantile(v, 0.5), slices.Max(v)
	spread, quartiles := 0.0, 0.0
	if med != 0 {
		spread = (hi - lo) / med
		quartiles = (quantile(v, 0.75) - quantile(v, 0.25)) / med
	}
	fmt.Printf("   %-28s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %6s\n", name, lo, med, hi, spread*100, quartiles*100, bound)
	return spread
}
