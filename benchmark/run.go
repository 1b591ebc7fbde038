package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"github.com/alvc/alvc/internal/server"
)

// metricDef names one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the control plane sees; every workload
// reports all of them. BENCHMARK.json mirrors this list (a test checks).
// A bound holds for every workload, so the noisiest one sets it; how
// each was chosen is in README.md under "The bounds".
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"primary_p50_ms", "ms", "lower", 0.15},
	{"primary_p75_ms", "ms", "lower", 0.2},
	{"secondary_p50_ms", "ms", "lower", 0.2},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_kb_per_op", "kB", "lower", 0.01},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"protected_share", "ratio", "higher", 0.01},
}

// perLayer is the ledger: first the metrics read from /metrics, then
// the ones read from the traced run's spans.
var perLayer = []metricDef{
	{name: "orch.stage_cluster_ms", unit: "ms", better: "lower"},
	{name: "orch.stage_slice_ms", unit: "ms", better: "lower"},
	{name: "orch.stage_placement_ms", unit: "ms", better: "lower"},
	{name: "orch.stage_instantiate_ms", unit: "ms", better: "lower"},
	{name: "orch.stage_path_ms", unit: "ms", better: "lower"},
	{name: "orch.stage_standby_ms", unit: "ms", better: "lower"},
	{name: "orch.stage_wdm_ms", unit: "ms", better: "lower"},
	{name: "orch.stage_rules_ms", unit: "ms", better: "lower"},
	{name: "orch.stage_sum_ms", unit: "ms", better: "lower"},
	{name: "server.overhead_ms", unit: "ms", better: "lower"},
	{name: "orch.repairs_swapped", unit: "count", better: "higher"},
	{name: "orch.repairs_repathed", unit: "count", better: "lower"},
	{name: "orch.repairs_replaced", unit: "count", better: "lower"},
	{name: "orch.repairs_patched", unit: "count", better: "lower"},
	{name: "orch.repairs_rebuilt", unit: "count", better: "lower"},
	{name: "orch.repairs_failed", unit: "count", better: "lower"},
	{name: "orch.debounce_coalesced", unit: "count", better: "higher"},
	{name: "orch.debounce_flush_ms", unit: "ms", better: "lower"},
	{name: "sdn.path_computations", unit: "count", better: "lower"},
	{name: "sdn.yen_runs", unit: "count", better: "lower"},
	{name: "sdn.candidate_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "sdn.installed_rules_end", unit: "count", better: "lower"},
	{name: "topology.graph_builds", unit: "count", better: "lower"},
	{name: "topology.snapshot_hits", unit: "count", better: "higher"},
	{name: "topology.liveness_patches", unit: "count", better: "lower"},
	{name: "optimizer.tasks", unit: "count", better: "lower"},
	{name: "optimizer.drain_ms", unit: "ms", better: "lower"},
	{name: "optimizer.queue_high_water", unit: "count", better: "lower"},
	{name: "optimizer.queue_shed", unit: "count", better: "lower"},
	{name: "resilience.groupplan_buckets", unit: "count", better: "lower"},
	{name: "resilience.groupplan_shared_chains", unit: "count", better: "higher"},
	{name: "resilience.groupplan_fallbacks", unit: "count", better: "lower"},
	{name: "resilience.standby_chains_end", unit: "count", better: "higher"},
	{name: "trace.spans", unit: "count", better: "lower"},
	{name: "trace.spans_dropped", unit: "count", better: "lower"},
	{name: "trace.store_spans_end", unit: "count", better: "lower"},

	{name: "topology.bipartite_ns", unit: "ns", better: "lower"},
	{name: "topology.bipartite_allocs", unit: "count", better: "lower"},
	{name: "cluster.build_ns", unit: "ns", better: "lower"},
	{name: "cluster.build_allocs", unit: "count", better: "lower"},
	{name: "cluster.cover_self_ns", unit: "ns", better: "lower"},
	{name: "placement.place_ns", unit: "ns", better: "lower"},
	{name: "sdn.compute_path_ns", unit: "ns", better: "lower"},
	{name: "sdn.yen_cold_ns", unit: "ns", better: "lower"},
	{name: "sdn.yen_cold_allocs", unit: "count", better: "lower"},
	{name: "sdn.yen_memo_hit_ns", unit: "ns", better: "lower"},
	{name: "resilience.plan_standby_ns", unit: "ns", better: "lower"},
	{name: "topology.snapshot_cold_build_ns", unit: "ns", better: "lower"},
	{name: "server.list_handler_ns", unit: "ns", better: "lower"},
	{name: "server.socket_overhead_ns", unit: "ns", better: "lower"},
	{name: "telemetry.render_ns", unit: "ns", better: "lower"},
	{name: "telemetry.render_bytes", unit: "B", better: "lower"},
	{name: "trace.query_ns", unit: "ns", better: "lower"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "higher"},
}

// setupRepeats is how many times a run sets up from scratch; setup_s is
// the median, and the last fleet is the one measured.
const setupRepeats = 3

// result is one run of one workload.
type result struct {
	workload          string
	scriptHash        string
	correct           bool
	attempted, failed int
	errs              []string
	// e2e and layers hold the contract's metrics by name; layers is the
	// /metrics ledger alone in an untraced run. diag holds the raw
	// (uncalibrated) readings and other bench.* diagnostics.
	e2e, layers, diag map[string]float64
	spanFile          string
}

// runWorkload sets the workload up, measures the timed phase and checks
// the outcome. outDir is where a traced run writes its span file.
func runWorkload(w *workload, sz size, seed int64, traced bool, outDir string) (*result, error) {
	// Two Ps whatever the machine has: one for the client, one for the
	// server, and a batch worker pool that is neither starved nor wider
	// than on the recording machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	sc := w.script(newGen(seed), sz)
	res := &result{workload: w.name, scriptHash: sc.hash()}
	kern, err := newRefKernel(len(sc.Timed))
	if err != nil {
		return nil, err
	}
	defer kern.close()

	// Set-up time is what it costs the program: booting, and serving the
	// resident fleet and the warm-up. The harness's own time between the
	// requests — checks, kernel samples — is not in it.
	var f *fleet
	var r *runner
	var setupRaw, setupCal []float64
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if f, err = boot(fleetTopology(sz.pool), w.options(sz)...); err != nil {
			return nil, fmt.Errorf("%s: boot: %w", w.name, err)
		}
		booted := time.Since(start)
		r = &runner{f: f, w: w, slots: make([]slot, sc.Slots), resident: sz.resident, kern: kern}
		r.exec(sc.Resident)
		r.exec(sc.Warm)
		raw := (booted + time.Duration(r.stepNs)).Seconds()
		setupRaw, setupCal = append(setupRaw, raw), append(setupCal, raw*kern.drain(w.kernel))
		if r.failed > 0 {
			_ = f.close()
			return nil, fmt.Errorf("%s: set-up failed %d ops: %v", w.name, r.failed, r.errs)
		}
	}
	defer f.close()
	r.attempted, r.opSteps = 0, 0
	protectedAtSetup, err := r.verifyFleet()
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}

	before, err := f.scrape()
	if err != nil {
		return nil, err
	}
	if traced {
		if r.tr, err = newTracer(f); err != nil {
			return nil, err
		}
	}
	r.s = newSamples(sc.Timed)
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	phase := time.Now()
	if r.tr != nil {
		r.tr.t0 = phase
	}
	r.exec(sc.Timed)
	wall := time.Since(phase)
	runtime.ReadMemStats(&m1)
	// The script is the harness's one large structure; with all but the
	// timed steps' iteration numbers dropped here, the live heap below is
	// what the control plane holds, plus fixed-size sample buffers.
	iterOf, positions := make([]int32, len(sc.Timed)), sc.Positions
	for i := range sc.Timed {
		iterOf[i] = int32(sc.Timed[i].Iter)
	}
	sc = script{}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	after, err := f.scrape()
	if err != nil {
		return nil, err
	}
	if kern.err != nil {
		return nil, fmt.Errorf("%s: reference kernel: %w", w.name, kern.err)
	}
	var local [kernelKinds][]float64
	for kind := range local {
		local[kind] = kern.localFactors(kernelKind(kind))
	}
	kernNs := [kernelKinds]float64{quantile(kern.samples[serialKernel], 0.5), quantile(kern.samples[parallelKernel], 0.5)}

	res.attempted, res.failed, res.errs = r.attempted, r.failed, r.errs
	protected, err := r.verifyFleet()
	if err != nil {
		res.errs = append(res.errs, err.Error())
	}
	res.correct = res.failed == 0 && err == nil

	// Every duration is read twice: as measured, and calibrated by the
	// kernel samples taken around it.
	s := r.s
	raw := func(t timing) float64 { return float64(t.ns) }
	cal := func(t timing) float64 {
		l := local[t.kind]
		return float64(t.ns) * l[min(int(t.kern), len(l)-1)]
	}
	iterations := func(read func(timing) float64) []float64 {
		sums := make([]float64, len(s.iterBad))
		for i, t := range s.steps {
			if t.ns >= 0 {
				sums[iterOf[i]] += read(t)
			}
		}
		return sums
	}
	readings := func(ts []timing, read func(timing) float64) []float64 {
		out := make([]float64, len(ts))
		for i, t := range ts {
			out[i] = read(t)
		}
		return out
	}
	// ops_per_s. The timed phase is cycles of the same `positions`
	// iterations — the same batch into the same pool fill, the same tray —
	// so each position's time is the median over the cycles, which drops a
	// bad spell of the machine, and the rate is taken over the mean of the
	// positions, which keeps every one of them — every pool fill, every
	// tray — in the metric. A failed iteration has no sample.
	rate := func(iters []float64) float64 {
		sum := 0.0
		for p := 0; p < positions; p++ {
			var cycles []float64
			for i := p; i < len(iters); i += positions {
				if !s.iterBad[i] {
					cycles = append(cycles, iters[i])
				}
			}
			sum += quantile(cycles, 0.5)
		}
		return float64(w.opsPerIter) * 1e9 * float64(positions) / sum
	}
	ops := float64(res.attempted - res.failed)
	calPrimary, rawPrimary := readings(s.primary, cal), readings(s.primary, raw)
	res.e2e = map[string]float64{
		"setup_s":          quantile(setupCal, 0.5),
		"ops_per_s":        rate(iterations(cal)),
		"primary_p50_ms":   quantile(calPrimary, 0.5) / 1e6,
		"primary_p75_ms":   quantile(calPrimary, 0.75) / 1e6,
		"secondary_p50_ms": quantile(readings(s.secondary, cal), 0.5) / 1e6,
		"allocs_per_op":    float64(m1.Mallocs-m0.Mallocs) / ops,
		"alloc_kb_per_op":  float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / ops,
		"live_heap_mb":     float64(m2.HeapAlloc) / (1 << 20),
		"protected_share":  protected,
	}
	res.diag = map[string]float64{
		"bench.setup_s_raw":           quantile(setupRaw, 0.5),
		"bench.ops_per_s_raw":         rate(iterations(raw)),
		"bench.primary_p50_ms_raw":    quantile(rawPrimary, 0.5) / 1e6,
		"bench.primary_p75_ms_raw":    quantile(rawPrimary, 0.75) / 1e6,
		"bench.primary_p90_ms_raw":    quantile(rawPrimary, 0.9) / 1e6,
		"bench.primary_p99_ms_raw":    quantile(rawPrimary, 0.99) / 1e6,
		"bench.secondary_p50_ms_raw":  quantile(readings(s.secondary, raw), 0.5) / 1e6,
		"bench.ref_serial_ns":         kernNs[serialKernel],
		"bench.ref_parallel_ns":       kernNs[parallelKernel],
		"bench.timed_wall_s":          wall.Seconds(),
		"bench.iterations":            float64(len(s.iterBad)),
		"bench.primary_samples":       float64(len(s.primary)),
		"bench.secondary_samples":     float64(len(s.secondary)),
		"bench.retained_b_per_op":     (float64(m2.HeapAlloc) - float64(m0.HeapAlloc)) / ops,
		"bench.gc_cycles":             float64(m1.NumGC - m0.NumGC),
		"bench.requests_sent":         float64(f.sent),
		"bench.requests_served":       float64(f.served.Load()),
		"bench.protected_share_setup": protectedAtSetup,
	}
	res.layers = ledger(before, after, ops, mean(rawPrimary)/1e6, float64(len(rawPrimary)))
	if r.tr != nil {
		for name, v := range r.tr.layerMetrics() {
			res.layers[name] = v
		}
		res.layers["bench.trace_overhead_ratio"] = (float64(s.tracedOps) / float64(s.tracedNs)) /
			(float64(s.untracedOps) / float64(s.untracedNs))
		if res.spanFile, err = r.tr.write(outDir, w.name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verifyFleet is the end-of-run check over HTTP: exactly the resident
// chains are active, each with a path, and under a failure workload
// none is left without a standby. It returns the share of active chains
// whose standby is planned and disjoint.
func (r *runner) verifyFleet() (protectedShare float64, err error) {
	var deps []server.DeploymentJSON
	if _, err := r.f.do("GET", "/v1/chains?state=active", nil, &deps); err != nil {
		return 0, err
	}
	if len(deps) != r.resident {
		return 0, fmt.Errorf("fleet: %d active chains at the end, want the %d residents", len(deps), r.resident)
	}
	protected := 0
	for i := range deps {
		d := &deps[i]
		if len(d.Path) < 2 {
			return 0, fmt.Errorf("fleet: chain %d is active without a path", d.ID)
		}
		if d.Standby != nil && d.Standby.Disjoint {
			protected++
		} else if d.Standby == nil && r.w.mustProtect {
			return 0, fmt.Errorf("fleet: chain %d has no standby after the last drain", d.ID)
		}
	}
	if len(deps) == 0 {
		return 1, nil
	}
	return float64(protected) / float64(len(deps)), nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// print writes every metric of the run by name with its unit: the
// end-to-end metrics, the bench.* diagnostics beside them, and the
// per-layer ledger.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  script %s  attempted %d  failed %d  correct %v\n",
		res.workload, res.scriptHash, res.attempted, res.failed, res.correct)
	for _, e := range res.errs {
		fmt.Fprintf(w, "   ! %s\n", e)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "   %-34s %14.4f %-6s (%s is better, bound %.0f%%)\n", d.name, res.e2e[d.name], d.unit, d.better, d.bound*100)
	}
	names := make([]string, 0, len(res.diag))
	for name := range res.diag {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "   %-34s %14.4f\n", name, res.diag[name])
	}
	for _, d := range perLayer {
		if v, ok := res.layers[d.name]; ok {
			fmt.Fprintf(w, "   %-34s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	if res.spanFile != "" {
		fmt.Fprintf(w, "   spans written to %s\n", res.spanFile)
	}
}
