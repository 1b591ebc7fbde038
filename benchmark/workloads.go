package main

import (
	"time"

	"github.com/alvc/alvc"
)

// size fixes how much one run does. The timed counts are constants of
// --seconds, never of the clock: a fixed script is what makes two
// commits comparable (a 160k-cycle churn slows from 0.40 to 0.65 ms per
// cycle as retained state grows, so "as many as fit" would hand the
// faster commit the slower, fuller fleet).
type size struct {
	pool     int // OPSs, which is also how many chains fit
	shards   int // orchestrator shards (0 or 1: unsharded)
	resident int // chains provisioned during set-up and kept
	warm     int // untimed warm-up, in the workload's own units
	timed    int // timed phase, in the workload's own units
	perCycle int // bigpool_fill only: chains per fill cycle
}

// workload is one scenario: a fleet, an op script and the two request
// kinds whose latencies it reports by name.
type workload struct {
	name, why string
	// primary and secondary name the ops sampled as primary_* and
	// secondary_*; failure_storm records both from inside its one op.
	primary, secondary string
	// opsPerIter is how many end-to-end operations one timed iteration
	// completes.
	opsPerIter int
	// traceBlock and replayEvery pace a traced run, in operation steps:
	// blocks of traceBlock steps alternate traced and untraced, and in a
	// traced block every replayEvery-th step is followed by a replay of
	// its layer calls.
	traceBlock, replayEvery int
	// kernel is the reference kernel set-up is calibrated by: the one of
	// the operation the workload is about.
	kernel kernelKind
	// mustProtect: the run is wrong if any chain ends it without a standby.
	mustProtect bool
	options     func(size) []alvc.Option
	// size returns the full-size run for --seconds.
	size func(seconds int) size
	// smoke is the ~1 % size tier-1 runs.
	smoke  size
	script func(g *gen, sz size) script
}

// stormOptions is the failure_storm fleet: four shards, the optimizer
// attached but never started (the script drains it), and a debouncer
// whose hour-long window only the script's flush ever ends. The storm
// threshold sits below one tray's backlog so the re-protect work goes
// through the group planner.
func stormOptions(sz size) []alvc.Option {
	return []alvc.Option{
		alvc.WithShards(sz.shards),
		alvc.WithOptimizer(alvc.OptimizerOptions{StormThreshold: 4}),
		alvc.WithFailureDebounce(time.Hour),
	}
}

func noOptions(size) []alvc.Option { return nil }

var workloads = []*workload{
	{
		name:        "provision_churn",
		why:         "steady-state provision+delete on a 300-OPS pool: AL construction dominates and standby planning hits the candidate memo; repair, optimizer and debouncer do nothing",
		primary:     opProvision,
		secondary:   opDelete,
		opsPerIter:  1,
		traceBlock:  32,
		replayEvery: 16,
		options:     noOptions,
		size: func(seconds int) size {
			return size{pool: 300, resident: 100, warm: 1000, timed: 600 * seconds}
		},
		smoke: size{pool: 40, resident: 8, warm: 8, timed: 96},
		script: func(g *gen, sz size) script {
			return script{
				Resident:  g.residents(sz.resident, sz.shards),
				Warm:      g.churn(sz.warm, sz.resident),
				Timed:     g.churn(sz.timed, sz.resident),
				Slots:     sz.resident + 1,
				Positions: 1,
			}
		},
	},
	{
		name:        "bigpool_fill",
		why:         "the same layers at 4x the pool and under the 2-worker batch pool: costs that grow with the pool or with lock contention show here and barely in provision_churn",
		primary:     opBatch,
		secondary:   opDelete,
		opsPerIter:  batchSize,
		traceBlock:  1,
		replayEvery: 1,
		kernel:      parallelKernel,
		options:     noOptions,
		size: func(seconds int) size {
			return size{pool: 1200, warm: 1, timed: max(1, seconds/2), perCycle: 600}
		},
		smoke: size{pool: 120, warm: 1, timed: 2, perCycle: 50},
		script: func(g *gen, sz size) script {
			// The warm-up is a whole cycle: the first fill to the high-water
			// mark grows the heap and every map to size and runs at half
			// speed, and that belongs to set-up.
			return script{
				Warm:      g.fillCycles(sz.warm, sz.perCycle, 0),
				Timed:     g.fillCycles(sz.timed, sz.perCycle, 0),
				Slots:     sz.perCycle,
				Positions: sz.perCycle / batchSize,
			}
		},
	},
	{
		name:        "failure_storm",
		why:         "tray cuts through debouncer, reconcile, live-mask patching, group planner and optimizer queue: the sdn/topology layers by patch-and-reroute, no cluster build or placement",
		opsPerIter:  1,
		traceBlock:  4,
		replayEvery: 4,
		kernel:      parallelKernel,
		mustProtect: true,
		options:     stormOptions,
		size: func(seconds int) size {
			return size{pool: 168, shards: 4, resident: 160, warm: 80, timed: 75 * seconds}
		},
		smoke: size{pool: 40, shards: 4, resident: 32, warm: 2, timed: 16},
		script: func(g *gen, sz size) script {
			warm, timed := splitWarm(g.storms(sz.warm+sz.timed, sz.resident), sz.warm)
			// A repaired chain settles on its other route, and the next cut
			// of its tray moves it back: the work repeats every second pass
			// over the trays.
			return script{Resident: g.residents(sz.resident, sz.shards), Warm: warm, Timed: timed, Slots: sz.resident,
				Positions: 2 * sz.resident / trayChains}
		},
	},
	{
		name:        "operate_mix",
		why:         "reads beside lifecycle writes on one orch state: server JSON, telemetry render and trace queries dominate; a provision-side cache that taxes reads or invalidates on writes shows here",
		primary:     opMove,
		secondary:   opList,
		opsPerIter:  mixBlock,
		traceBlock:  128,
		replayEvery: 64,
		options:     noOptions,
		size: func(seconds int) size {
			return size{pool: 300, resident: 200, warm: 1000, timed: 1000 * seconds}
		},
		smoke: size{pool: 40, resident: 16, warm: 20, timed: 400},
		script: func(g *gen, sz size) script {
			resident, m := g.residents(sz.resident, sz.shards), g.mixer(sz.resident)
			return script{Resident: resident, Warm: m.steps(sz.warm), Timed: m.steps(sz.timed), Slots: sz.resident, Positions: 1}
		},
	},
}

// splitWarm cuts one generated sequence of single-step iterations into
// the warm-up and the timed phase, so the tray rotation carries on
// across the cut; timed iterations restart at 0.
func splitWarm(steps []step, warm int) (warmSteps, timed []step) {
	timed = steps[warm:]
	for i := range timed {
		timed[i].Iter -= warm
	}
	return steps[:warm], timed
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
